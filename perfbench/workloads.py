"""Inputs, item runners and output checks for the three benchmark workloads.

Every workload is a list of items built from a seed.  The seed only
permutes the order in which the items run, so the total work is the
same for every seed while any cache behaviour that depends on order
still shows.  Each repetition of a run takes its own order from the
seed, so a run's medians average over several orders rather than
depend on one.  Items run in batches; each batch runs in its own fresh
child process, so every batch pays cold caches as one `lrpictures`
command does.

- sweep7: verify_bijection on every instance with |nu| <= 7, the
  `lrpictures sweep` traffic.  Small instances share the enumerate_ssyt
  cache.  One batch.
- heavy: `lrpictures verify` on four named single instances, one batch
  (one process) each, so no cache is shared between them.
- orders: the order-pair experiment on every admissible order pair of
  every instance with |nu| <= 7, plus verify_embedding for every
  partition of size 1..7 under every admissible order with entry bound
  max(2, rows)..5.  One batch.

The library is reached only through its public names.  Expected
outputs live in expected.json, written by pin.py from the library at
the commit that introduced this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import lrpictures
from lrpictures import cli

WORKLOADS = ("sweep7", "heavy", "orders")

# Largest target size the sweep7 and orders workloads cover, full and tiny.
MAX_SIZE = {False: 7, True: 3}
EMBEDDING_MAX_ENTRY = 5

# (name, lambda, mu, nu) for the heavy workload; the tiny set keeps the
# same code path on instances that finish in milliseconds.
HEAVY = {
    False: (("stair5_c76", "5,4,3,2,1", "5,4,3,2,1", "8,7,6,4,3,2"),
            ("stair5_c0", "5,4,3,2,1", "5,4,3,2,1", "10,9,5,3,2,1"),
            ("row16", "-", "16", "16"),
            ("stair4_r7", "4,3,2,1", "4,3,2,1", "5,4,4,3,2,1,1")),
    True: (("tiny_c2", "3,1,1", "3,2", "4,3,2,1"),
           ("tiny_c0", "2,1", "2,1", "5,1"),
           ("tiny_row4", "-", "4", "4"),
           ("tiny_stair2", "2,1", "2,1", "3,2,1")),
}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def fmt(shape) -> str:
    return ",".join(map(str, shape.parts)) if shape.parts else "-"


def instance_key(inst) -> str:
    return f"{fmt(inst.lam)}|{fmt(inst.mu)}|{fmt(inst.nu)}"


def build(workload: str, seed: int, tiny: bool = False, rep: int = 0) -> list[tuple]:
    """All items of the workload, in the order the seed and repetition pick."""
    max_size = MAX_SIZE[tiny]
    if workload == "sweep7":
        items = [("bijection", inst) for inst in lrpictures.iter_instances(max_size)]
    elif workload == "heavy":
        items = [("verify", name, ["verify", "--lambda", lam, "--mu", mu, "--nu", nu])
                 for name, lam, mu, nu in HEAVY[tiny]]
    elif workload == "orders":
        items = [("conjecture", inst) for inst in lrpictures.iter_instances(max_size)]
        items += [("embedding", shape, m)
                  for size in range(1, max_size + 1)
                  for shape in lrpictures.partitions_of(size)
                  for m in range(max(2, len(shape)), EMBEDDING_MAX_ENTRY + 1)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{seed}/{rep}").shuffle(items)
    return items


def batch(items: list[tuple], workload: str, index: int) -> list[tuple]:
    """The items that one child process runs."""
    if workload == "heavy":
        return [items[index]]
    return items


def run_item(item: tuple):
    """Run one item through the library's public functions and return its output."""
    kind = item[0]
    if kind == "bijection":
        return lrpictures.verify_bijection(item[1])
    if kind == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(item[2])
        return code, out.getvalue()
    if kind == "conjecture":
        inst = item[1]
        rows = []
        for codomain in lrpictures.enumerate_admissible_orders(inst.skew_shape.cells()):
            for domain in lrpictures.enumerate_admissible_orders(lrpictures.cells(inst.mu)):
                row = lrpictures.conjecture_experiment(inst, codomain, domain)
                rows.append(f"{row.crystals}:{row.pictures}:{'h' if row.holds else 'f'}")
        return ";".join(rows)
    if kind == "embedding":
        shape, m = item[1], item[2]
        return [lrpictures.verify_embedding(shape, m, order).ok
                for order in lrpictures.enumerate_admissible_orders(lrpictures.cells(shape))]
    raise ValueError(f"unknown item kind {kind!r}")


def label(item: tuple) -> str:
    """A stable name for the item, used to look up its expected output."""
    kind = item[0]
    if kind == "verify":
        return item[1]
    if kind == "embedding":
        return f"{fmt(item[1])}|{item[2]}"
    return instance_key(item[1])


def load_expected() -> dict:
    with EXPECTED_PATH.open() as fh:
        return json.load(fh)


def check_item(item: tuple, output, expected: dict) -> str | None:
    """None when the output matches the pinned value, else what is wrong."""
    kind, key = item[0], label(item)
    if kind == "bijection":
        c = expected["coefficients"][key]
        counts = (output.pictures, output.crystals, output.lattice)
        if not output.ok or counts != (c, c, c):
            return f"{key}: bijection={output.bijection} counts={counts}, expected c={c}"
    elif kind == "verify":
        if output != (0, expected["heavy"][key]):
            return f"{key}: exit {output[0]} stdout {output[1]!r}"
    elif kind == "conjecture":
        if output != expected["conjecture"][key]:
            return f"{key}: rows {output!r}"
    elif kind == "embedding":
        if len(output) != expected["embedding"][key] or not all(output):
            return f"{key}: {output!r}"
    return None


def check_aggregate(workload: str, items: list[tuple], outputs: list, expected: dict,
                    tiny: bool) -> str | None:
    """Whole-workload checks: sweep7's per-size instance counts and maximum
    coefficients must match the pinned `lrpictures sweep` summary."""
    if workload != "sweep7":
        return None
    sizes = [[0, 0] for _ in range(MAX_SIZE[tiny] + 1)]
    for item, output in zip(items, outputs):
        row = sizes[item[1].nu.size]
        row[0] += 1
        if isinstance(output, lrpictures.BijectionReport):
            row[1] = max(row[1], output.lattice)
    want = expected["sizes"][:MAX_SIZE[tiny] + 1]
    if sizes != want:
        return f"per-size [instances, max coefficient] {sizes}, expected {want}"
    return None
