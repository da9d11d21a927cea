"""Byte-for-byte golden output of every CLI verb, text and JSON.

Each case runs cli.run in-process and compares stdout and the exit code
with tests/golden_cli.json exactly.  Refactors must leave these bytes
unchanged; a deliberate output change re-records the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lrpictures import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
REF = ["--lambda", "3,1,1", "--mu", "3,2", "--nu", "4,3,2,1"]

_CASES = [
    ["count", *REF],
    ["pictures", *REF],
    ["pictures", *REF, "--order", "eff"],
    ["crystals", *REF],
    ["crystals", *REF, "--order", "index:1"],
    ["phi", *REF],
    ["psi", *REF],
    ["verify", *REF],
    ["verify", "--mu", "3,2,1", "--rank", "4", "--order", "eff"],
    ["decompose", "--lambda", "2,1", "--mu", "2,1", "--rank", "5"],
    ["decompose", "--lambda", "2,1", "--mu", "2,1", "--rank", "5", "--order", "eff"],
    ["orders", "--mu", "3,2,1"],
    ["conjecture", *REF],
    ["conjecture", "--max-size", "4"],
    ["sweep", "--max-size", "5"],
    ["crystals", *REF, "--order", "sideways"],
]
CASES = [case + ["--format", fmt] for case in _CASES for fmt in ("text", "json")]


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {" ".join(entry["argv"]): entry
            for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, golden):
    assert _run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n",
                      encoding="utf-8")
