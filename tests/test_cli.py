import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrpictures
from lrpictures import cli
from lrpictures.lr import BijectionReport, LRInstance, SizeSummary, SweepReport
from lrpictures.pictures import TotalOrder
from lrpictures.shapes import Partition, cells
from lrpictures.wordcrystal import EmbeddingReport

REF = ["--lambda", "3,1,1", "--mu", "3,2", "--nu", "4,3,2,1"]


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert cli.parse_partition("3,1,1") == Partition((3, 1, 1))
    assert cli.parse_partition("-") == Partition(())
    assert cli.parse_partition("") == Partition(())
    assert cli.parse_partition("0") == Partition(())
    with pytest.raises(ValueError):
        cli.parse_partition("3,x")
    with pytest.raises(ValueError):
        cli.parse_partition("1,2")


def test_resolve_order():
    cell_set = cells(Partition((2, 2)))
    assert cli.resolve_order("jay", cell_set) == TotalOrder.jay(cell_set)
    assert cli.resolve_order("eff", cell_set) == TotalOrder.eff(cell_set)
    assert cli.resolve_order("index:1", cell_set) == TotalOrder.eff(cell_set)
    with pytest.raises(ValueError):
        cli.resolve_order("index:9", cell_set)
    with pytest.raises(ValueError):
        cli.resolve_order("index:x", cell_set)
    with pytest.raises(ValueError):
        cli.resolve_order("sideways", cell_set)


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", *REF)
    assert code == 0
    assert out == "pictures=2 crystals=2 lattice=2\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", *REF, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "instance": {"lambda": [3, 1, 1], "mu": [3, 2], "nu": [4, 3, 2, 1],
                     "rank_bound": 4},
        "counts": {"pictures": 2, "crystals": 2, "lattice": 2}}


def test_output_is_reproducible(capsys):
    first = run(capsys, "count", *REF, "--format", "json")
    second = run(capsys, "count", *REF, "--format", "json")
    assert first == second


def test_pictures_listing(capsys):
    code, out, _ = run(capsys, "pictures", *REF)
    assert code == 0
    assert out.splitlines() == [
        "(1,1)->(1,4) (1,2)->(2,2) (1,3)->(4,1) (2,1)->(2,3) (2,2)->(3,2)",
        "(1,1)->(1,4) (1,2)->(2,3) (1,3)->(2,2) (2,1)->(3,2) (2,2)->(4,1)"]
    code, out, _ = run(capsys, "pictures", *REF, "--limit", "1")
    assert len(out.splitlines()) == 1


def test_crystals_listing(capsys):
    code, out, _ = run(capsys, "crystals", *REF)
    assert code == 0
    assert out == "1 2 2\n3 4\n\n1 2 4\n2 3\n"
    same = run(capsys, "crystals", *REF, "--order", "eff")
    assert same[1] == out


def test_map_tables(capsys):
    code, out, _ = run(capsys, "phi", *REF, "--limit", "1")
    assert code == 0
    assert out == ("(1,1)->(1,4) (1,2)->(2,2) (1,3)->(4,1) "
                   "(2,1)->(2,3) (2,2)->(3,2) => 1,2,4/2,3\n")
    code, out, _ = run(capsys, "psi", *REF, "--limit", "1")
    assert code == 0
    assert out == ("1,2,2/3,4 => (1,1)->(1,4) (1,2)->(2,3) "
                   "(1,3)->(2,2) (2,1)->(3,2) (2,2)->(4,1)\n")


def test_verify_bijection_mode(capsys):
    code, out, _ = run(capsys, "verify", *REF)
    assert code == 0
    assert out == "pictures=2 crystals=2 lattice=2\nbijection=ok\n"
    code, out, _ = run(capsys, "verify", *REF, "--format", "json")
    payload = json.loads(out)
    assert payload["bijection"] == "ok"
    assert payload["counterexample"] is None


def test_verify_embedding_mode(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "2,2", "--rank", "3")
    assert code == 0
    assert out == "embedding=ok\n"
    code, out, _ = run(capsys, "verify", "--mu", "2,2", "--rank", "3",
                       "--order", "eff", "--format", "json")
    assert json.loads(out)["ok"] is True


def test_verify_requires_enough_flags(capsys):
    code, _, err = run(capsys, "verify", "--mu", "2,2")
    assert code == 2
    assert "error:" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    inst = LRInstance(Partition((1,)), Partition((1,)), Partition((2,)))
    fake = BijectionReport(inst, 1, 2, 1, "fail", {"kind": "count_mismatch"})
    monkeypatch.setattr(cli, "verify_bijection", lambda _inst: fake)
    code, out, _ = run(capsys, "verify", "--lambda", "1", "--mu", "1",
                       "--nu", "2")
    assert code == 1
    assert "bijection=fail" in out
    assert "count_mismatch" in out


def test_verify_embedding_failure_prints_the_counterexample(capsys, monkeypatch):
    counterexample = {"word": [2, 1], "operator": "lowering", "index": 1, "result": [2, 2]}
    monkeypatch.setattr(cli, "verify_embedding",
                        lambda _shape, _rank, _order: EmbeddingReport(False, counterexample))
    code, out, _ = run(capsys, "verify", "--mu", "2", "--rank", "2")
    assert code == 1
    assert out == f"embedding=fail\ncounterexample={json.dumps(counterexample)}\n"
    code, out, _ = run(capsys, "verify", "--mu", "2", "--rank", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["counterexample"] == counterexample


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--lambda", "1", "--mu", "1",
                       "--rank", "2")
    assert code == 0
    assert out == "nu=2 multiplicity=1\nnu=1,1 multiplicity=1\n"


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--lambda", "2,1", "--mu", "2,1",
                       "--rank", "5", "--format", "json")
    payload = json.loads(out)
    assert {tuple(c["nu"]): c["multiplicity"]
            for c in payload["components"]}[(3, 2, 1)] == 2


def test_orders_listing(capsys):
    code, out, _ = run(capsys, "orders", "--mu", "3,2")
    assert code == 0
    assert out.splitlines() == [
        "0: (1,3) (1,2) (1,1) (2,2) (2,1) [jay]",
        "1: (1,3) (1,2) (2,2) (1,1) (2,1) [eff]",
        "total=2"]


def test_orders_json(capsys):
    code, out, _ = run(capsys, "orders", "--mu", "1,1", "--format", "json")
    payload = json.loads(out)
    assert payload["total"] == 1
    assert payload["orders"] == [{"cells": [[1, 1], [2, 1]]}]


def test_conjecture_single_instance(capsys):
    code, out, _ = run(capsys, "conjecture", *REF)
    assert code == 0
    lines = out.splitlines()
    # the skew cells form a chain here, so only the domain order varies
    assert lines[0] == ("lambda=3,1,1 mu=3,2 nu=4,3,2,1 codomain=0:jay+eff "
                        "domain=0:jay crystals=2 pictures=2 well_defined=yes "
                        "injective=yes surjective=yes verdict=holds")
    assert lines[1] == ("lambda=3,1,1 mu=3,2 nu=4,3,2,1 codomain=0:jay+eff "
                        "domain=1:eff crystals=2 pictures=2 well_defined=yes "
                        "injective=yes surjective=yes verdict=holds")
    assert lines[-1] == "rows=2 holds=2 fails=0"


def test_conjecture_sweep_mode(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-size", "2")
    assert code == 0
    assert out.splitlines()[-1] == "rows=11 holds=11 fails=0"


def test_conjecture_requires_instance_or_size(capsys):
    code, _, err = run(capsys, "conjecture")
    assert code == 2
    assert "error:" in err


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "--max-size", "2")
    assert code == 0
    assert out.splitlines() == [
        "size=0 instances=1 mismatches=0 max_coefficient=1",
        "size=1 instances=2 mismatches=0 max_coefficient=1",
        "size=2 instances=8 mismatches=0 max_coefficient=1",
        "instances=11 mismatches=0 status=ok"]


def test_sweep_json_schema(capsys):
    code, out, _ = run(capsys, "sweep", "--max-size", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["instances"] == 3
    assert "seconds" not in payload


def test_sweep_failure_exit_code(capsys, monkeypatch):
    inst = LRInstance(Partition((1,)), Partition((1,)), Partition((2,)))
    bad = BijectionReport(inst, 1, 2, 1, "fail", {"kind": "count_mismatch"})
    fake = SweepReport(1, 3, (SizeSummary(1, 3, 1, 1),), (bad,), 0.0)
    monkeypatch.setattr(cli, "sweep", lambda _n: fake)
    code, out, _ = run(capsys, "sweep", "--max-size", "1")
    assert code == 1
    assert "status=fail" in out


ROW = ["--lambda", "-", "--mu", "1200", "--nu", "1200"]


# one row of 1200 cells is past Python's default recursion limit, so each
# search on these paths must run as a loop
@pytest.mark.parametrize("argv, last", [
    (["count", *ROW], "pictures=1 crystals=1 lattice=1"),
    (["verify", *ROW], "bijection=ok"),
    (["verify", "--mu", "1200", "--rank", "2"], "embedding=ok"),
    (["decompose", "--lambda", "-", "--mu", "1200", "--rank", "2"], "nu=1200 multiplicity=1"),
    (["orders", "--mu", "1200"], "total=1"),
    (["conjecture", *ROW], "rows=1 holds=1 fails=0"),
], ids=["count", "verify", "verify-embedding", "decompose", "orders", "conjecture"])
def test_a_row_of_1200_cells(capsys, argv, last):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == last


def test_a_column_of_60_cells(capsys):
    code, out, err = run(capsys, "verify", "--mu", ",".join(["1"] * 60), "--rank", "60")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "embedding=ok"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "count", "--lambda", "1")[0] == 2
    code, _, err = run(capsys, "count", "--lambda", "9", "--mu", "1",
                       "--nu", "2")
    assert code == 2
    assert "error:" in err


def test_malformed_partition_is_a_usage_error(capsys):
    code, _, err = run(capsys, "count", "--lambda", "1,x", "--mu", "1",
                       "--nu", "2")
    assert code == 2
    assert "expected comma-separated integers" in err


def test_bad_order_value(capsys):
    code, _, err = run(capsys, "crystals", *REF, "--order", "index:99")
    assert code == 2
    assert "out of range" in err


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "count", "--help")[0] == 0


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # 24,024 lines overflow any pipe buffer, so the writer meets the closed pipe
    src = str(Path(lrpictures.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "lrpictures.cli", "orders", "--mu", "4,4,4,4"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"0: (1,4) (1,3) (1,2) (1,1) (2,4)") and first.endswith(b"[jay]\n")
    assert (code, err) == (141, b"")


def run_capped(cap_mb, *argv, timeout=120):
    """The CLI in a fresh interpreter whose address space, and only its own, is capped."""
    import resource
    cap = cap_mb * 2**20
    src = str(Path(lrpictures.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "lrpictures.cli", *argv], capture_output=True, env=env,
        timeout=timeout, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


def test_running_out_of_memory_exits_2_with_one_line():
    # the conjecture rows of every instance with |nu| <= 8, held for the JSON
    # document, peak at ~172 MB
    done = run_capped(150, "conjecture", "--max-size", "8", "--format", "json")
    assert (done.returncode, done.stderr) == (2, b"error: out of memory\n")


def test_the_embedding_check_keeps_no_image():
    # 896,126 tableaux, whose words held at once would take ~390 MB
    done = run_capped(64, "verify", "--mu", "3,3", "--rank", "22")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"embedding=ok\n", b"")


def test_decompose_counts_the_fillings_as_they_arrive():
    # 361,712 fillings, ~90 MB when held all at once, for 2,701 lines of counts
    done = run_capped(64, "decompose", "--lambda", "6,5,4,3,2,1", "--mu", "6,5,4,3,2,1",
                      "--rank", "8")
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "013bf81574456c45e60c18fe88ec2b0d5377ad8e71e1ac6113125dbe1b6b7518")


def test_the_empty_shape_checks_its_one_word_at_any_bound():
    # tables with one item per letter up to the bound would take ~12 GB here
    done = run_capped(100, "verify", "--mu", "-", "--rank", "100000000", timeout=5)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"embedding=ok\n", b"")


def test_an_embedding_past_the_tableau_limit_exits_2_with_one_line():
    # 5,113,180,686,250 tableaux, which the check would otherwise collect without bound
    src = str(Path(lrpictures.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "lrpictures.cli", "verify", "--mu", "3,3", "--rank", "300"],
        capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: 5113180686250 tableaux of shape 3,3 with entries at most 300, "
                           b"past the limit of 1,000,000\n")
