"""Command-line front end.

One verb per invocation.  Partitions are comma-separated descending
integers ("3,1,1"); pass "-" for the empty partition.  Orders are named
by "jay", "eff", or "index:<k>" with k an index into the admissible
order listing for the relevant cell set (see the orders verb).  Output
is plain text by default and JSON with --format json; identical
invocations produce byte-identical output.

Exit status: 0 on success, 1 when a verification verb finds a failure,
2 on usage or input errors and when the process runs out of memory, 141
(128 + SIGPIPE) when the reader closes the output early, as
`lrpictures orders --mu 4,4,4,4 | head -1` does.

A plain argv, the verb and then each option named in full once with its
value, is read straight from the verb table (_parse_plain).  Everything
else, help, abbreviations, --flag=value, repeats and every error, goes to
argparse, which is imported only then; output and exit codes are the same
either way.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from .lr import (LRInstance, conjecture_rows, decompose_tensor, iter_instances,
                 lr_coefficient_all_methods, lr_filter, phi, psi, sweep, verify_bijection)
from .pictures import Picture, TotalOrder, enumerate_admissible_orders, enumerate_pictures
from .shapes import Partition, cells
from .tableaux import Tableau
from .wordcrystal import verify_embedding

if TYPE_CHECKING:
    import argparse


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; "", "-", and "0" all mean the empty shape."""
    stripped = text.strip()
    if stripped in ("", "-", "0"):
        return Partition(())
    try:
        parts = tuple(int(piece) for piece in stripped.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse partition {text!r}: expected comma-separated integers") from None
    return Partition(parts)


@lru_cache(maxsize=None)
def resolve_order(name: str, cell_set: tuple) -> TotalOrder:
    """Turn an --order value into a total order on the given cells, once per
    name and cell set."""
    if name == "jay":
        return TotalOrder.jay(cell_set)
    if name == "eff":
        return TotalOrder.eff(cell_set)
    if name.startswith("index:"):
        tail = name[len("index:"):]
        if not tail.isdecimal():
            raise ValueError(f"bad order index {tail!r}: expected index:<k> with k a nonnegative integer")
        k = int(tail)
        orders = enumerate_admissible_orders(cell_set)
        if k >= len(orders):
            raise ValueError(
                f"order index {k} out of range: {len(orders)} admissible orders exist")
        return orders[k]
    raise ValueError(f"unknown order {name!r}: expected jay, eff, or index:<k>")


def _fmt_cell(cell: tuple[int, int]) -> str:
    return f"({cell[0]},{cell[1]})"


def _fmt_picture(pic: Picture) -> str:
    return " ".join(f"{_fmt_cell(a)}->{_fmt_cell(b)}" for a, b in pic.pairs)


def _fmt_rows(tab: Tableau) -> str:
    return "/".join(",".join(str(value) for value in row) for row in tab.rows)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _order_tags(listing: tuple, cell_set: tuple) -> list[str]:
    """Which of the two reading orders, jay and eff, list the cells as the listing does."""
    return [tag for tag in ("jay", "eff") if listing == resolve_order(tag, cell_set).cells]


@lru_cache(maxsize=None)
def _order_labels(cell_set: tuple) -> dict[tuple, str]:
    """Each admissible order's label, its index and reading tags, keyed on its listing."""
    labels = {}
    for index, order in enumerate(enumerate_admissible_orders(cell_set)):
        tags = "+".join(_order_tags(order.cells, cell_set))
        labels[order.cells] = f"{index}:{tags}" if tags else str(index)
    return labels


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative")
    return value


def _truncate(items: tuple, limit: int | None) -> tuple:
    return items if limit is None else items[:_nonnegative("--limit", limit)]


def _partition(flag: str, text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as err:
        raise ValueError(f"{flag} {text}: {err}") from None


def _instance(args: SimpleNamespace) -> LRInstance:
    return LRInstance(_partition("--lambda", args.lam), _partition("--mu", args.mu),
                      _partition("--nu", args.nu), args.rank)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _emit_listing(args: SimpleNamespace, inst: LRInstance, key: str, items: Sequence,
                  to_json: Callable, to_text: Callable, sep: str = "\n") -> None:
    """JSON {"instance", key: [to_json(item), ...]}, or the items' text joined by sep."""
    if args.format == "json":
        _emit_json({"instance": inst.to_json(), key: [to_json(item) for item in items]})
    elif items:
        print(sep.join(to_text(item) for item in items))


def _cmd_count(args: SimpleNamespace) -> int:
    inst = _instance(args)
    triple = lr_coefficient_all_methods(inst)
    if args.format == "json":
        _emit_json({"instance": inst.to_json(), "counts": triple._asdict()})
    else:
        print(f"pictures={triple.pictures} crystals={triple.crystals} lattice={triple.lattice}")
    return 0


def _cmd_pictures(args: SimpleNamespace) -> int:
    inst = _instance(args)
    domain = resolve_order(args.order, cells(inst.mu)) if args.order else None
    pics = _truncate(enumerate_pictures(inst.mu, inst.skew_shape, domain), args.limit)
    _emit_listing(args, inst, "pictures", pics, Picture.to_json, _fmt_picture)
    return 0


def _cmd_crystals(args: SimpleNamespace) -> int:
    inst = _instance(args)
    order = resolve_order(args.order, cells(inst.mu)) if args.order else None
    tabs = _truncate(lr_filter(inst, order), args.limit)
    _emit_listing(args, inst, "tableaux", tabs, Tableau.to_json, Tableau.ascii, "\n\n")
    return 0


def _cmd_phi(args: SimpleNamespace) -> int:
    inst = _instance(args)
    pics = _truncate(enumerate_pictures(inst.mu, inst.skew_shape), args.limit)
    pairs = [(pic, phi(pic, inst)) for pic in pics]
    _emit_listing(args, inst, "pairs", pairs,
                  lambda pair: {"picture": pair[0].to_json(), "tableau": pair[1].to_json()},
                  lambda pair: f"{_fmt_picture(pair[0])} => {_fmt_rows(pair[1])}")
    return 0


def _cmd_psi(args: SimpleNamespace) -> int:
    inst = _instance(args)
    tabs = _truncate(lr_filter(inst), args.limit)
    pairs = [(tab, psi(tab, inst)) for tab in tabs]
    _emit_listing(args, inst, "pairs", pairs,
                  lambda pair: {"tableau": pair[0].to_json(), "picture": pair[1].to_json()},
                  lambda pair: f"{_fmt_rows(pair[0])} => {_fmt_picture(pair[1])}")
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    if args.nu is not None:
        if args.lam is None or args.mu is None:
            raise ValueError("verify with --nu needs --lambda and --mu as well")
        if args.order is not None:
            raise ValueError("--order not used: verify with --nu checks the row reading")
        report = verify_bijection(_instance(args))
        if args.format == "json":
            _emit_json(report.to_json())
        else:
            print(f"pictures={report.pictures} crystals={report.crystals} "
                  f"lattice={report.lattice}")
            print(f"bijection={report.bijection}")
            if report.counterexample is not None:
                print(f"counterexample={json.dumps(report.counterexample)}")
        return 0 if report.ok else 1
    if args.mu is None or args.rank is None:
        raise ValueError("verify needs --nu (bijection check) or --mu with --rank "
                         "(reading embedding check)")
    if args.lam is not None:
        raise ValueError("--lambda not used: verify without --nu checks the embedding of --mu")
    shape = _partition("--mu", args.mu)
    if args.rank < len(shape):
        rows = f"{len(shape)} row{'' if len(shape) == 1 else 's'}"
        raise ValueError((f"rank {args.rank} below the {rows} of {shape}" if shape
                          else f"rank {args.rank} below 0, the least entry bound")
                         + ": no tableau exists to check")
    order = resolve_order(args.order or "jay", cells(shape))
    report = verify_embedding(shape, args.rank, order)
    if args.format == "json":
        _emit_json({"shape": shape.to_json(), "max_entry": args.rank,
                    "order": order.to_json(), "ok": report.ok,
                    "counterexample": report.counterexample})
    else:
        print(f"embedding={'ok' if report.ok else 'fail'}")
        if report.counterexample is not None:
            print(f"counterexample={json.dumps(report.counterexample)}")
    return 0 if report.ok else 1


def _cmd_decompose(args: SimpleNamespace) -> int:
    lam = _partition("--lambda", args.lam)
    mu = _partition("--mu", args.mu)
    order = resolve_order(args.order, cells(mu)) if args.order else None
    table = decompose_tensor(lam, mu, args.rank, order)
    if args.format == "json":
        _emit_json({"lambda": lam.to_json(), "mu": mu.to_json(),
                    "rank_bound": args.rank,
                    "components": [{"nu": shape.to_json(), "multiplicity": mult}
                                   for shape, mult in table.items()]})
    else:
        for shape, mult in table.items():
            print(f"nu={shape} multiplicity={mult}")
    return 0


def _cmd_orders(args: SimpleNamespace) -> int:
    mu = _partition("--mu", args.mu)
    cell_set = cells(mu)
    everything = enumerate_admissible_orders(cell_set)
    listed = _truncate(everything, args.limit)
    if args.format == "json":
        _emit_json({"mu": mu.to_json(), "total": len(everything),
                    "orders": [order.to_json() for order in listed]})
    else:
        names = {cell: _fmt_cell(cell) for cell in cell_set}
        for index, order in enumerate(listed):
            tags = _order_tags(order.cells, cell_set)
            suffix = f" [{','.join(tags)}]" if tags else ""
            print(f"{index}: " + " ".join(map(names.get, order.cells)) + suffix)
        print(f"total={len(everything)}")
    return 0


def _conjecture_rows(args: SimpleNamespace):
    if args.max_size is not None:
        unused = [flag for flag, value in (("--lambda", args.lam), ("--mu", args.mu),
                                           ("--nu", args.nu), ("--rank", args.rank))
                  if value is not None]
        if unused:
            raise ValueError(f"{', '.join(unused)} not used: --max-size sweeps every instance")
        return (row for inst in iter_instances(_nonnegative("--max-size", args.max_size))
                for row in conjecture_rows(inst))
    if args.lam is None or args.mu is None or args.nu is None:
        raise ValueError("conjecture needs --lambda, --mu, and --nu, or --max-size")
    return conjecture_rows(_instance(args))


def _cmd_conjecture(args: SimpleNamespace) -> int:
    rows = _conjecture_rows(args)
    if args.format == "json":
        rows = list(rows)
        holds = sum(1 for row in rows if row.holds)
        _emit_json({"rows": [row.to_json() for row in rows],
                    "holds": holds, "fails": len(rows) - holds})
        return 0
    count = holds = 0
    for count, row in enumerate(rows, 1):
        holds += row.holds
        inst = row.instance
        codomain = _order_labels(inst.skew_shape.cells())[row.codomain_order.cells]
        domain = _order_labels(cells(inst.mu))[row.domain_order.cells]
        print(f"lambda={inst.lam} mu={inst.mu} "
              f"nu={inst.nu} codomain={codomain} domain={domain} "
              f"crystals={row.crystals} pictures={row.pictures} "
              f"well_defined={_yn(row.well_defined)} injective={_yn(row.injective)} "
              f"surjective={_yn(row.surjective)} "
              f"verdict={'holds' if row.holds else 'fails'}")
    print(f"rows={count} holds={holds} fails={count - holds}")
    return 0


def _cmd_sweep(args: SimpleNamespace) -> int:
    report = sweep(_nonnegative("--max-size", args.max_size))
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        for row in report.per_size:
            print(f"size={row.size} instances={row.instances} "
                  f"mismatches={row.mismatches} max_coefficient={row.max_coefficient}")
        print(f"instances={report.instances} mismatches={len(report.failures)} "
              f"status={'ok' if report.ok else 'fail'}")
    return 0 if report.ok else 1


_PARTS = {"metavar": "PARTS",
          "help": "comma-separated parts, e.g. 3,1,1; use - for the empty shape"}
_OPTIONS: dict[str, dict] = {
    "lambda": {**_PARTS, "dest": "lam"}, "mu": _PARTS, "nu": _PARTS,
    "rank": {"type": int, "metavar": "N", "help": "entry bound for tableaux"},
    "order": {"metavar": "ORDER",
              "help": "jay, eff, or index:<k> into the admissible order listing"},
    "limit": {"type": int, "metavar": "N", "help": "print at most N items"},
    "max-size": {"type": int, "metavar": "N", "help": "largest target size to cover"},
    "format": {"choices": ("text", "json"), "default": "text",
               "help": "output encoding (default text)"},
}

# verb -> (handler, help, options in --help order; a trailing ! marks a required one)
_VERBS: dict[str, tuple[Callable[[SimpleNamespace], int], str, str]] = {
    "count": (_cmd_count, "picture, crystal, and lattice counts for one instance",
              "lambda! mu! nu! rank format"),
    "pictures": (_cmd_pictures, "list the pictures of one instance",
                 "lambda! mu! nu! rank order limit format"),
    "crystals": (_cmd_crystals, "list the filtered tableaux of one instance",
                 "lambda! mu! nu! rank order limit format"),
    "phi": (_cmd_phi, "table of pictures and their image tableaux",
            "lambda! mu! nu! rank limit format"),
    "psi": (_cmd_psi, "table of filtered tableaux and their image pictures",
            "lambda! mu! nu! rank limit format"),
    "verify": (_cmd_verify, "check the bijection on one instance, or with --mu and "
                            "--rank alone check the reading embedding",
               "lambda mu nu rank order format"),
    "decompose": (_cmd_decompose, "tensor product decomposition table",
                  "lambda! mu! order format rank!"),
    "orders": (_cmd_orders, "list the admissible orders on the cells of a shape",
               "mu! limit format"),
    "conjecture": (_cmd_conjecture, "order-pair experiment on one instance or a sweep",
                   "lambda mu nu rank max-size format"),
    "sweep": (_cmd_sweep, "verify the bijection on every instance up to a size",
              "format max-size!"),
}


def _verb_options(verb: str) -> list[tuple[str, bool]]:
    """The verb's options in --help order, each as (flag, required)."""
    return [(option.rstrip("!"), option.endswith("!")) for option in _VERBS[verb][2].split()]


def _build_parser() -> argparse.ArgumentParser:
    """The parser with every verb's subparser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lrpictures",
        description="Pictures, Littlewood-Richardson crystals, and the bijection "
                    "between them.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name in _VERBS:
        p = sub.add_parser(name, help=_VERBS[name][1])
        for flag, required in _verb_options(name):
            p.add_argument("--" + flag, required=required, **_OPTIONS[flag])
    return parser


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """What _build_parser's parser gives for `verb --option value ...`, each
    option one of the verb's named in full at most once, with argparse's types,
    choices, required options and defaults; None for any other argv (help,
    abbreviations, --flag=value, repeats, values led by "-" other than "-"
    itself, bad values), which argparse then reads."""
    if not argv or argv[0] not in _VERBS or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:
        return None
    values = {"verb": argv[0]}
    for flag, required in _verb_options(argv[0]):
        spec = _OPTIONS[flag]
        dest = spec.get("dest", flag.replace("-", "_"))
        text = given.pop("--" + flag, None)
        if text is None:
            if required:
                return None
            values[dest] = spec.get("default")
            continue
        if text.startswith("-") and text != "-":
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    return None if given else SimpleNamespace(**values)


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        except SystemExit as stop:
            return int(stop.code or 0)
    try:
        return _VERBS[args.verb][0](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the signal docs' recipe: devnull takes the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
