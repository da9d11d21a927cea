"""One fresh process running one batch of a workload; run.py starts it.

Prints one JSON object on stdout: set-up and body times, each item's
time, peak memory, the enumerate_ssyt cache state after the body,
failures, and with --trace the per-function span totals.  Set-up is the
import of lrpictures plus building the inputs from the seed.

A speed.Sampler runs from the first line to the end of the body.  Every
time reported is scaled to nominal machine speed with its samples (see
speed.py); the raw set-up and body times are reported beside them.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import speed  # noqa: E402

SAMPLER = speed.Sampler()
SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import lrpictures  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True,
                        help="repetition number; with the seed it picks the item order")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", metavar="PATH",
                        help="trace the body and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time alone")
    args = parser.parse_args()

    items = workloads.batch(workloads.build(args.workload, args.seed, args.tiny, args.rep),
                            args.workload, args.batch)
    setup_end = time.perf_counter()
    setup_spent = SAMPLER.spent_s

    def setup() -> dict:
        return {"setup_s": SAMPLER.scaled(SETUP_START, setup_end, setup_spent),
                "raw_setup_s": setup_end - SETUP_START - setup_spent}

    if args.setup_only:
        SAMPLER.stop()
        SAMPLER.sample_until(setup_end + speed.MARGIN_S)
        print(json.dumps(setup()))
        return

    run = workloads.run_item
    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.item(run)
    outputs, timed = [], []
    clock = time.perf_counter
    body_start, body_spent = clock(), SAMPLER.spent_s
    try:
        for item in items:
            begin, spent = clock(), SAMPLER.spent_s
            try:
                outputs.append(run(item))
            except Exception as err:  # an item that raises fails; the run goes on
                outputs.append(err)
            timed.append((begin, clock(), SAMPLER.spent_s - spent))
    finally:
        if tracer is not None:
            tracer.uninstall()
    body_end = clock()
    SAMPLER.stop()
    body_spent = SAMPLER.spent_s - body_spent
    item_s = [SAMPLER.scaled(*span) for span in timed]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache = lrpictures.enumerate_ssyt.cache_info()

    expected = workloads.load_expected()
    failures = []
    for item, output in zip(items, outputs):
        problem = (f"{workloads.label(item)}: raised {output!r}"
                   if isinstance(output, Exception)
                   else workloads.check_item(item, output, expected))
        if problem is not None:
            failures.append(problem)
    aggregate = workloads.check_aggregate(args.workload, items, outputs, expected,
                                          args.tiny)

    result = {
        **setup(),
        "wall_s": SAMPLER.scaled(body_start, body_end, body_spent),
        "raw_wall_s": body_end - body_start - body_spent,
        "speed_factor": SAMPLER.factor(body_start, body_end),
        "speed_samples": len(SAMPLER.kernel_s),
        "peak_rss_mb": rss_mb, "item_s": item_s,
        "labels": [workloads.label(item) for item in items],
        "attempted": len(items),
        "failed": len(failures), "aggregate": aggregate, "failures": failures[:5],
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "currsize": cache.currsize},
    }
    if tracer is not None:
        tracer.write(args.spans)
        summary = tracing.summarize(tracer.site_keys, tracer.spans)
        summary["restored"] = tracer.restored()
        summary["patched"] = sorted({f"{ns.__name__}.{attr}"
                                     for ns, attr, _ in tracer.patched})
        result["trace"] = summary
    print(json.dumps(result))


if __name__ == "__main__":
    main()
