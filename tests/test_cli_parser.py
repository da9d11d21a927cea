"""The CLI builds only the invoked verb's subparser and labels orders from
one table per cell set; both must leave every byte of output unchanged.

The references below are the full parser, built with no verb named, and
the order labels as first written: a listing index by .index(order) and
the reading orders built afresh through TotalOrder.jay and TotalOrder.eff.
"""

import argparse

import pytest

from lrpictures import cli
from lrpictures.lr import conjecture_sweep, iter_instances
from lrpictures.pictures import TotalOrder, enumerate_admissible_orders
from lrpictures.shapes import Partition, cells

VERBS = ("count", "pictures", "crystals", "phi", "psi", "verify", "decompose",
         "orders", "conjecture", "sweep")


def _choices(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _run(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as stop:
        code = int(stop.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_full_parser_has_every_verb():
    assert tuple(_choices(cli._build_parser())) == VERBS


@pytest.mark.parametrize("verb", VERBS)
def test_verb_help_matches_the_full_parser(capsys, verb):
    expected = _choices(cli._build_parser())[verb].format_help()
    assert _run(capsys, cli.run, [verb, "--help"]) == (0, expected, "")


USAGE = {
    "count": "--lambda PARTS --mu PARTS --nu PARTS [--rank N] [--format {text,json}]",
    "pictures": "--lambda PARTS --mu PARTS --nu PARTS [--rank N] [--order ORDER] "
                "[--limit N] [--format {text,json}]",
    "crystals": "--lambda PARTS --mu PARTS --nu PARTS [--rank N] [--order ORDER] "
                "[--limit N] [--format {text,json}]",
    "phi": "--lambda PARTS --mu PARTS --nu PARTS [--rank N] [--limit N] [--format {text,json}]",
    "psi": "--lambda PARTS --mu PARTS --nu PARTS [--rank N] [--limit N] [--format {text,json}]",
    "verify": "[--lambda PARTS] [--mu PARTS] [--nu PARTS] [--rank N] [--order ORDER] "
              "[--format {text,json}]",
    "decompose": "--lambda PARTS --mu PARTS [--order ORDER] [--format {text,json}] --rank N",
    "orders": "--mu PARTS [--limit N] [--format {text,json}]",
    "conjecture": "[--lambda PARTS] [--mu PARTS] [--nu PARTS] [--rank N] [--max-size N] "
                  "[--format {text,json}]",
    "sweep": "[--format {text,json}] --max-size N",
}


@pytest.mark.parametrize("verb", VERBS)
def test_verb_usage_keeps_its_options_in_order(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "200")
    out = _run(capsys, cli.run, [verb, "--help"])[1]
    assert out.splitlines()[0] == f"usage: lrpictures {verb} [-h] {USAGE[verb]}"


@pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["nosuchverb"], 2)])
def test_no_verb_named_matches_the_full_parser(capsys, argv, code):
    got = _run(capsys, cli.run, argv)
    assert got == _run(capsys, cli._build_parser().parse_args, argv)
    assert got[0] == code


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("tail, usage", [
    # the subparser rejects the value; the top parser reports leftovers
    (["--format", "xml"], "usage: lrpictures {verb} "),
    (["--format", "json", "--no-such-flag"], "usage: lrpictures "),
])
def test_verb_usage_errors_match_the_full_parser(capsys, verb, tail, usage):
    argv = [verb, *tail]
    got = _run(capsys, cli.run, argv)
    assert got == _run(capsys, cli._build_parser().parse_args, argv)
    assert got[0] == 2 and got[2].startswith(usage.format(verb=verb))


def _reference_tags(order, cell_set):
    return [tag for tag, ref in (("jay", TotalOrder.jay(cell_set)),
                                 ("eff", TotalOrder.eff(cell_set)))
            if order == ref]


def _reference_label(order, cell_set):
    index = enumerate_admissible_orders(cell_set).index(order)
    tags = _reference_tags(order, cell_set)
    return f"{index}:{'+'.join(tags)}" if tags else str(index)


def test_order_labels_match_the_reference_on_every_cell_set_up_to_six_cells():
    # nu / lam over every instance with |nu| <= 6, lam empty giving the straight shapes
    cell_sets = {inst.skew_shape.cells() for inst in iter_instances(6)}
    assert len(cell_sets) > 100
    for cell_set in cell_sets:
        for order in enumerate_admissible_orders(cell_set):
            assert cli._order_tags(order, cell_set) == _reference_tags(order, cell_set)
            assert cli._order_label(order, cell_set) == _reference_label(order, cell_set)


def test_conjecture_text_matches_rows_rendered_through_the_reference(capsys):
    lines = []
    for row in conjecture_sweep(6):
        inst = row.instance
        codomain = _reference_label(row.codomain_order, inst.skew_shape.cells())
        domain = _reference_label(row.domain_order, cells(inst.mu))
        yn = {True: "yes", False: "no"}
        lines.append(
            f"lambda={inst.lam} mu={inst.mu} "
            f"nu={inst.nu} codomain={codomain} domain={domain} "
            f"crystals={row.crystals} pictures={row.pictures} "
            f"well_defined={yn[row.well_defined]} injective={yn[row.injective]} "
            f"surjective={yn[row.surjective]} "
            f"verdict={'holds' if row.holds else 'fails'}")
    assert len(lines) == 1198
    lines.append("rows=1198 holds=1198 fails=0")
    assert _run(capsys, cli.run, ["conjecture", "--max-size", "6"]) == (
        0, "\n".join(lines) + "\n", "")


def test_named_orders_are_resolved_once_per_name_and_cell_set():
    cell_set = cells(Partition((3, 2)))
    for name in ("jay", "eff", "index:1"):
        assert cli.resolve_order(name, cell_set) is cli.resolve_order(name, cell_set)


def test_orders_builds_no_index_map(capsys):
    for cache in (cli._order_indices, cli._order_label, cli.resolve_order):
        cache.cache_clear()
    assert cli.run(["orders", "--mu", "3,3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("[jay]") and out.endswith("total=5\n")
    assert cli._order_indices.cache_info().currsize == 0
    # the conjecture verb labels its orders by index, so it builds the map
    assert cli.run(["conjecture", "--lambda", "-", "--mu", "3,3", "--nu", "3,3"]) == 0
    assert cli._order_indices.cache_info().currsize == 1
