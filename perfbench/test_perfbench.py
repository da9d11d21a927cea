"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`.

The smoke runs go through run.py and child.py exactly as a measured run
does, on tiny inputs, so they finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lrpictures  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert run.HEAVY_BATCHES == len(workloads.HEAVY[False]) == len(workloads.HEAVY[True])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.split()[2] == m["unit"]
                   for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert any(line.startswith("fail_ratio 0 ratio") for line in lines)
    record = json.loads(lines[0][len("run "):])
    assert {"nproc", "python", "platform", "commit", "workload", "seed"} <= set(record)


def test_sampler_scales_by_kernel_time_and_restores_the_signal():
    sampler = speed.Sampler()
    sampler.start()
    t0, spent = time.perf_counter(), sampler.spent_s
    while time.perf_counter() - t0 < 0.2:
        speed.kernel(100)
    t1 = time.perf_counter()
    sampler.stop()
    spent = sampler.spent_s - spent
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(sampler.kernel_s) >= 3 and 0 < spent < t1 - t0
    assert sampler.factor(t0, t1) > 0
    assert sampler.scaled(t0, t1, spent) == pytest.approx(
        (t1 - t0 - spent) / sampler.factor(t0, t1))


def test_seed_only_permutes_items():
    a = workloads.build("orders", 1, tiny=True)
    for b in (workloads.build("orders", 2, tiny=True),
              workloads.build("orders", 1, tiny=True, rep=1)):
        assert a != b
        assert sorted(map(workloads.label, a)) == sorted(map(workloads.label, b))
    assert workloads.build("orders", 1, tiny=True, rep=1) == workloads.build(
        "orders", 1, tiny=True, rep=1)


def _namespaces():
    names = ["lrpictures"] + [f"lrpictures.{m}" for m in tracing.MODULES]
    return {name: sys.modules[name] for name in names}


def test_tracer_restores_every_patched_name():
    before = {name: dict(vars(ns)) for name, ns in _namespaces().items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lr = sys.modules["lrpictures.lr"]
        assert lr.enumerate_ssyt is not before["lrpictures.lr"]["enumerate_ssyt"]
        assert lrpictures.cli.verify_bijection is not before["lrpictures.cli"]["verify_bijection"]
        patched = {f"{ns.__name__}.{attr}" for ns, attr, _ in tracer.patched}
        assert {"lrpictures.lr.add_sequence", "lrpictures.wordcrystal.reading_by_order",
                "lrpictures.cli.run", "lrpictures.verify_bijection"} <= patched
        # wrappers call through, so the original cache sees the call
        original = before["lrpictures.tableaux"]["enumerate_ssyt"]
        shape = lrpictures.Partition((2, 1))
        hits = original.cache_info().hits
        lr.enumerate_ssyt(shape, 3)
        lr.enumerate_ssyt(shape, 3)
        assert original.cache_info().hits >= hits + 1
    finally:
        tracer.uninstall()
    assert tracer.restored()
    after = {name: dict(vars(ns)) for name, ns in _namespaces().items()}
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_spans_written_out_give_the_same_summary(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_item = tracer.item(workloads.run_item)
        for item in workloads.build("sweep7", 0, tiny=True)[:20]:
            run_item(item)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.bin"
    tracer.write(path)
    summary = tracing.summarize(tracer.site_keys, tracer.spans)
    assert summary == tracing.summarize(*tracing.load(path))
    assert summary["items"] == 20
    assert summary["balanced"] and summary["nested_ok"]
    assert summary["totals"]["lr.verify_bijection"]["calls"] == 20


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep7", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
