"""The lrpictures benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload sweep7|heavy|orders --seed N \
        --seconds S --trace 0|1

Each repetition runs the workload's batches one at a time, each in a
fresh single-threaded child process (child.py), so every repetition pays
cold caches as an `lrpictures` command does, in an item order of its
own drawn from the seed, and then SETUP_CHILDREN
more children that only set up, so set-up is timed often enough for a
steady median.  Repetitions continue until --seconds have passed, with
at least three, and the metrics are medians over them.  Every item's
output is checked against expected.json.

Every time is scaled to nominal machine speed by the reference kernel
that each child samples while it runs (speed.py), because the host's CPU
speed drifts by more than the bounds.  The raw times, and the speed
factor that relates the two, are printed beside the metrics.

--trace 0 reports the end-to-end metrics from untraced children, which
patch nothing.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing
overhead: traced wall time over untraced wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its unit, sample counts and the run record.  The full result is also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep7", "heavy", "orders")
HEAVY_BATCHES = 4
MIN_REPS = 3
SETUP_CHILDREN = 3
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("item_ms_p50", "ms"), ("item_ms_p99", "ms"))

PER_LAYER = (
    ("shapes.add_sequence.s", "s"), ("shapes.add_sequence.calls", "count"),
    ("shapes.add_sequence.boxes", "count"), ("shapes.add_sequence.ok_ratio", "ratio"),
    ("tableaux.reading_by_order.s", "s"), ("tableaux.reading_by_order.calls", "count"),
    ("tableaux.enumerate_ssyt.s", "s"), ("tableaux.enumerate_ssyt.tableaux", "count"),
    ("tableaux.enumerate_ssyt.hit_ratio", "ratio"),
    ("tableaux.enumerate_ssyt.cached", "count"),
    ("lr.lr_filter.s", "s"), ("lr.lr_filter.self_s", "s"),
    ("lr.lr_filter.calls", "count"), ("lr.lr_filter.yield_ratio", "ratio"),
    ("pictures.enumerate_pictures.s", "s"), ("pictures.enumerate_pictures.calls", "count"),
    ("pictures.enumerate_pictures.results", "count"),
    ("pictures.enumerate_admissible_orders.s", "s"),
    ("pictures.enumerate_admissible_orders.orders", "count"),
    ("pictures.is_picture.s", "s"), ("pictures.is_picture.calls", "count"),
    ("lr.conjecture_experiment.self_s", "s"),
    ("wordcrystal.verify_embedding.s", "s"), ("wordcrystal.verify_embedding.calls", "count"),
    ("lr.phi.s", "s"), ("lr.psi.s", "s"), ("lr.roundtrips", "count"),
    ("lr.verify_bijection.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("lr.lr_coefficient_lattice.s", "s"),
    ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark itself could not run: a child crashed or ran out of time."""


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args: argparse.Namespace) -> dict:
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "tiny": args.tiny,
            "nproc": len(os.sched_getaffinity(0)),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": platform.platform(), "commit": git_commit(ROOT)}


def run_child(args: argparse.Namespace, rep: int, batch: int, deadline: float,
              spans: Path | None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--batch", str(batch)]
    if args.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"batch {batch} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"batch {batch} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_rep(args: argparse.Namespace, rep: int, deadline: float,
            traced: bool) -> list[dict]:
    """One repetition: every batch of the workload, each in its own child."""
    batches = HEAVY_BATCHES if args.workload == "heavy" else 1
    out = []
    for b in range(batches):
        spans = OUT / "spans" / f"{args.workload}-batch{b}.bin" if traced else None
        out.append(run_child(args, rep, b, deadline, spans))
    return out


def run_setups(args: argparse.Namespace, rep: int, deadline: float) -> list[dict]:
    """Children that only set up, cycling through the batches."""
    batches = HEAVY_BATCHES if args.workload == "heavy" else 1
    return [run_child(args, rep, i % batches, deadline, None, setup_only=True)
            for i in range(SETUP_CHILDREN)]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between the closest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps: list[list[dict]], setups: list[dict]) -> dict[str, float]:
    """Medians over repetitions, except set-up and item_ms_p99.  set-up is
    the median over every child.  The tail is sparse, so item_ms_p99 is
    taken over each item's median time across repetitions."""
    per_rep = []
    for rep in reps:
        item_ms = [s * 1000 for child in rep for s in child["item_s"]]
        per_rep.append({"wall_s": sum(child["wall_s"] for child in rep),
                        "peak_rss_mb": max(child["peak_rss_mb"] for child in rep),
                        "item_ms_p50": quantile(item_ms, 50)})
    values = {"setup_s": statistics.median(
        [child["setup_s"] for rep in reps for child in rep]
        + [child["setup_s"] for child in setups])}
    for name in ("wall_s", "peak_rss_mb", "item_ms_p50"):
        values[name] = statistics.median(r[name] for r in per_rep)
    values["item_ms_p99"] = quantile(item_medians_ms(reps), 99)
    return values


def item_medians_ms(reps: list[list[dict]]) -> list[float]:
    """Each item's median time in ms over the repetitions, matched by label,
    since every repetition runs the same items in an order of its own."""
    times: dict[str, list[float]] = {}
    for rep in reps:
        for child in rep:
            for label, s in zip(child["labels"], child["item_s"]):
                times.setdefault(label, []).append(s * 1000)
    return [statistics.median(t) for t in times.values()]


def layer_values(rep: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, summed over its batches."""
    totals: dict[str, dict[str, float]] = {}
    for child in rep:
        for key, fields in child["trace"]["totals"].items():
            into = totals.setdefault(key, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                if field in ("s", "self_s"):  # to nominal speed, as wall_s is
                    value /= child["speed_factor"]
                into[field] += value
    tested = sum(child["trace"]["filter_tested"] for child in rep)
    hits = sum(child["cache"]["hits"] for child in rep)
    lookups = hits + sum(child["cache"]["misses"] for child in rep)

    def get(key: str, field: str) -> float:
        return totals.get(key, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {f"{key}.{field}": get(key, field)
              for key in totals for field in ("s", "self_s", "calls")}
    values.update({
        "shapes.add_sequence.boxes": get("shapes.add_sequence", "size"),
        "shapes.add_sequence.ok_ratio": ratio(get("shapes.add_sequence", "ok"),
                                              get("shapes.add_sequence", "calls")),
        "tableaux.enumerate_ssyt.tableaux": get("tableaux.enumerate_ssyt", "size"),
        "tableaux.enumerate_ssyt.hit_ratio": ratio(hits, lookups),
        "tableaux.enumerate_ssyt.cached": sum(child["cache"]["currsize"] for child in rep),
        "lr.lr_filter.yield_ratio": ratio(get("lr.lr_filter", "size"), tested),
        "pictures.enumerate_pictures.results": get("pictures.enumerate_pictures", "size"),
        "pictures.enumerate_admissible_orders.orders":
            get("pictures.enumerate_admissible_orders", "size"),
        "lr.roundtrips": (get("lr.phi", "calls") + get("lr.psi", "calls")) / 2,
    })
    return values


def per_layer(reps: list[list[dict]], traced: list[list[dict]]) -> dict[str, float]:
    each = [layer_values(rep) for rep in traced]
    values = {name: statistics.median(v.get(name, 0) for v in each)
              for name, _ in PER_LAYER if name != "trace.overhead"}
    untraced_wall = statistics.median(sum(c["wall_s"] for c in rep) for rep in reps)
    traced_wall = statistics.median(sum(c["wall_s"] for c in rep) for rep in traced)
    values["trace.overhead"] = traced_wall / untraced_wall
    return values


def problems(children: list[dict]) -> list[str]:
    """Everything wrong with the outputs and, for traced children, the trace."""
    found = []
    for child in children:
        found += child["failures"]
        if child["aggregate"] is not None:
            found.append(child["aggregate"])
        trace = child.get("trace")
        if trace is not None:
            if not trace["restored"]:
                found.append("traced run left a patched name in place")
            if not trace["nested_ok"]:
                found.append("a span lies outside its parent")
            if not trace["balanced"]:
                found.append("span self times do not add up to item durations")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs on the same code paths, for the benchmark's tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "lrpictures" / "__init__.py").is_file():
        print(f"error: no lrpictures sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[list[dict]] = []
    traced: list[list[dict]] = []
    setups: list[dict] = []
    try:
        while True:
            began, rep = time.monotonic(), len(reps)
            reps.append(run_rep(args, rep, deadline, traced=False))
            if args.trace:
                traced.append(run_rep(args, rep, deadline, traced=True))
            else:
                setups += run_setups(args, rep, deadline)
            took = time.monotonic() - began
            now = time.monotonic() - start
            enough = args.trace or len(reps) >= MIN_REPS
            if (enough and now + took > args.seconds) or now + took > DEADLINE_S:
                break
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    children = [child for rep in reps + traced for child in rep]
    found = problems(children)
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    if args.trace:
        metrics = per_layer(reps, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(reps, setups)
        units = dict(END_TO_END)
    record = run_record(args)
    items = sum(len(child["item_s"]) for child in reps[0])

    print(f"run {json.dumps(record)}")
    print(f"reps untraced={len(reps)} traced={len(traced)} items/rep={items}")
    timed = [child for rep in reps for child in rep]
    notes = {"setup_s": f"median over {len(timed) + len(setups)} children",
             "item_ms_p50": f"median over {len(reps)} reps of {items} items each",
             "item_ms_p99": f"over {items} items' medians across {len(reps)} reps",
             "trace.overhead": "traced wall_s / untraced wall_s"}
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    raw_wall = statistics.median(sum(c["raw_wall_s"] for c in rep) for rep in reps)
    raw_setup = statistics.median([c["raw_setup_s"] for c in timed + setups])
    speed = statistics.median(c["speed_factor"] for c in timed)
    print(f"raw_wall_s {raw_wall:.6g} s (unscaled; speed factor median {speed:.4g} "
          f"over {sum(c['speed_samples'] for c in timed)} samples)")
    print(f"raw_setup_s {raw_setup:.6g} s (unscaled)")
    if args.workload == "heavy":
        for label in sorted({c["labels"][0] for rep in reps for c in rep}):
            times = [c["item_s"][0] for rep in reps for c in rep if c["labels"][0] == label]
            print(f"instance_s.{label} {statistics.median(times):.6g} s")
    cache = [c["cache"] for c in reps[-1]]
    print(f"cache enumerate_ssyt after body: hits={sum(c['hits'] for c in cache)} "
          f"misses={sum(c['misses'] for c in cache)} "
          f"currsize={sum(c['currsize'] for c in cache)}")
    for problem in found[:10]:
        print(f"problem {problem}")

    result = {"correct": not found, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    detail = dict(result, record=record, reps=reps, traced=traced, setups=setups)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
