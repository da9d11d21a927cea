"""Span tracing for the benchmark's traced runs.

A Tracer replaces each measured public function of lrpictures under every
name a module imported it by (`lr.enumerate_ssyt`, `cli.verify_bijection`,
`wordcrystal.reading_by_order`, ...) with a wrapper that calls through to
the original, so lru_cache state is shared exactly as in an untraced
run.  Each call records one span in memory: call site, start, end, parent
span, item id and the size of the result.  The benchmark marks each of
its own items with a root span, so every span of one item shares its id.
uninstall() puts every original back; untraced runs never import this
module, so they measure the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

MODULES = ("shapes", "pictures", "tableaux", "wordcrystal", "lr", "cli")

# The public functions measured, by defining module.  Each maps to a
# function giving (result size, ok flag) for the span, or None.
TARGETS = {
    "shapes.add_sequence": lambda r: (len(r.steps), r.ok),
    "tableaux.reading_by_order": None,
    "tableaux.enumerate_ssyt": lambda r: (len(r), True),
    "pictures.enumerate_pictures": lambda r: (len(r), True),
    "pictures.enumerate_admissible_orders": lambda r: (len(r), True),
    "pictures.is_picture": None,
    "wordcrystal.verify_embedding": None,
    "lr.lr_filter": lambda r: (len(r), True),
    "lr.phi": None,
    "lr.psi": None,
    "lr.verify_bijection": None,
    "lr.lr_coefficient_lattice": None,
    "lr.conjecture_experiment": None,
    "cli.run": None,
}
ROOT = "bench.item"

# Per-span columns, in the order they are written out.
COLUMNS = (("site", "H"), ("parent", "q"), ("item", "q"), ("start", "d"),
           ("end", "d"), ("size", "q"), ("ok", "b"))


class Tracer:
    """Records spans around the measured functions while installed."""

    def __init__(self) -> None:
        self.sites: list[str] = [ROOT]
        self.site_keys: list[str] = [ROOT]
        self.spans = {name: array(code) for name, code in COLUMNS}
        self.stack = [-1]
        self.item_id = -1
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every module-level name bound to a measured function."""
        package = importlib.import_module("lrpictures")
        namespaces = {"lrpictures": package}
        for name in MODULES:
            namespaces[name] = importlib.import_module(f"lrpictures.{name}")
        originals = {}
        for key in TARGETS:
            module, name = key.split(".")
            func = getattr(namespaces[module], name)
            originals[id(func)] = (func, key)
        for prefix, namespace in namespaces.items():
            for attr, value in list(vars(namespace).items()):
                hit = originals.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                wrapper = self._wrap(f"{prefix}.{attr}", hit[1], value)
                setattr(namespace, attr, wrapper)
                self.patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self.patched):
            setattr(namespace, attr, value)

    def restored(self) -> bool:
        """Every patched name holds its original function again."""
        return all(getattr(namespace, attr) is value
                   for namespace, attr, value in self.patched)

    def item(self, func):
        """Wrap the benchmark's call for one item in a root span with a new item id."""
        inner = self._wrap(ROOT, ROOT, func)

        def run(*args):
            self.item_id += 1
            return inner(*args)
        return run

    def _wrap(self, site_name: str, key: str, func):
        if site_name in self.sites:
            site_id = self.sites.index(site_name)
        else:
            site_id = len(self.sites)
            self.sites.append(site_name)
            self.site_keys.append(key)
        measure = TARGETS.get(key)
        s = self.spans
        site, parent, item, start, end, size, ok = (s[name] for name, _ in COLUMNS)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(start)
            site.append(site_id)
            parent.append(stack[-1])
            item.append(self.item_id)
            start.append(0.0)
            end.append(0.0)
            size.append(0)
            ok.append(1)
            stack.append(index)
            begin = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                finish = clock()
                stack.pop()
                start[index] = begin
                end[index] = finish
            if measure is not None:
                size[index], ok[index] = measure(result)
            return result
        return traced

    def write(self, path) -> None:
        """The spans as one JSON header line followed by the raw columns."""
        header = {"sites": self.sites, "keys": self.site_keys,
                  "spans": len(self.spans["start"]), "columns": COLUMNS}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in COLUMNS:
                self.spans[name].tofile(fh)


def load(path) -> tuple[list[str], dict[str, array]]:
    """Read a span file written by Tracer.write: (site keys, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, code in header["columns"]:
            column = array(code)
            column.fromfile(fh, header["spans"])
            columns[name] = column
    return header["keys"], columns


def summarize(keys: list[str], spans: dict[str, array]) -> dict:
    """Per-function totals and the consistency checks of one traced batch.

    A span's self time is its duration minus its children's.  A
    function's inclusive time counts only spans with no ancestor of the
    same function, so recursion is not counted twice.  The checks: every
    child lies inside its parent, and the self times of each item's spans
    add up to the item's root duration, so no time goes unaccounted.
    """
    site, parent, item = spans["site"], spans["parent"], spans["item"]
    start, end, size, ok = spans["start"], spans["end"], spans["size"], spans["ok"]
    n = len(start)
    key_ids = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    key_of = [key_ids[keys[s]] for s in site]
    duration = [end[i] - start[i] for i in range(n)]
    children = [0.0] * n
    above = [0] * n
    nested_ok = True
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p] += duration[i]
            above[i] = above[p] | (1 << key_of[p])
            if start[i] < start[p] or end[i] > end[p] or item[i] != item[p]:
                nested_ok = False
    totals = {key: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0, "ok": 0}
              for key in key_ids}
    names = list(key_ids)
    item_self: dict[int, float] = {}
    roots: dict[int, float] = {}
    filter_tested = 0
    filter_id = key_ids.get("lr.lr_filter")
    for i in range(n):
        k = key_of[i]
        own = duration[i] - children[i]
        t = totals[names[k]]
        t["calls"] += 1
        t["self_s"] += own
        t["size"] += size[i]
        t["ok"] += ok[i]
        if not above[i] >> k & 1:
            t["s"] += duration[i]
        item_self[item[i]] = item_self.get(item[i], 0.0) + own
        if parent[i] < 0:
            roots[item[i]] = roots.get(item[i], 0.0) + duration[i]
        elif names[k] == "tableaux.enumerate_ssyt" and key_of[parent[i]] == filter_id:
            filter_tested += size[i]
    balanced = (roots.keys() == item_self.keys()
                and all(abs(item_self[i] - roots[i]) <= 1e-6 for i in roots))
    return {"totals": totals, "filter_tested": filter_tested, "spans": n,
            "items": len(roots), "nested_ok": nested_ok, "balanced": balanced}
