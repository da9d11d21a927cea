"""cli.run reads a plain `verb --option value ...` argv from the verb table
and hands every other argv to argparse; which path runs must not show.

The reference is the parser _build_parser builds: where
_parse_plain accepts an argv, it must give argparse's namespace, and the
argvs it refuses must keep argparse's exit code and text.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lrpictures
from lrpictures import cli
from lrpictures.shapes import partitions_of

GOLDEN = Path(__file__).with_name("golden_cli.json")
REF = ["--lambda", "3,1,1", "--mu", "3,2", "--nu", "4,3,2,1"]
COUNTS = "pictures=2 crystals=2 lattice=2\n"
# what a verification verb prints when it finds a failure, in text or JSON
FAILURE = re.compile(r'=fail\b|"bijection": "fail"|"ok": false')


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _argparse_run(argv):
    """cli.run with the argv read by argparse alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli._build_parser().parse_args(argv)
            code = cli._VERBS[args.verb][0](args)
        except SystemExit as stop:
            code = int(stop.code or 0)
        except ValueError as problem:
            print(f"error: {problem}", file=sys.stderr)
            code = 2
    return code, out.getvalue(), err.getvalue()


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=lambda entry: " ".join(entry["argv"]))
def test_golden_argvs_build_no_parser(monkeypatch, entry):
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert _run(entry["argv"])[:2] == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize("argv, code, out, err", [
    (["count", "-h"], 0, "usage: lrpictures count ", ""),
    (["count", "--lam", "3,1,1", "--mu", "3,2", "--nu", "4,3,2,1"], 0, COUNTS, ""),
    (["count", "--lambda", "3,1,1", "--mu=3,2", "--nu", "4,3,2,1"], 0, COUNTS, ""),
    # argparse keeps the last of a repeated option; the first value would not fit nu
    (["count", "--lambda", "3,1,1", "--mu", "9", "--mu", "3,2", "--nu", "4,3,2,1"], 0, COUNTS, ""),
    (["count", *REF, "--rank", "-1"], 2, "",
     "error: rank bound -1 below the 4 rows of the target\n"),
    (["nosuchverb"], 2, "", "usage: lrpictures "),
])
def test_argvs_that_are_not_plain_keep_their_argparse_result(argv, code, out, err):
    assert cli._parse_plain(argv) is None
    got = _run(argv)
    assert got == _argparse_run(argv)
    assert got[0] == code and got[1].startswith(out) and got[2].startswith(err)


_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from lrpictures import cli
code = cli.run(sys.argv[2:])
print("code", code, "loaded", *sorted({"argparse", "locale"} & set(sys.modules)))
"""


def _probe(*argv):
    src = str(Path(lrpictures.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _PROBE, src, *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_a_plain_argv_imports_neither_argparse_nor_locale():
    assert _probe("count", *REF) == COUNTS + "code 0 loaded\n"
    help_text = _probe("count", "--help")
    assert help_text.startswith("usage: lrpictures count ")
    assert help_text.splitlines()[-1].startswith("code 0 loaded argparse")


VERBS = tuple(cli._VERBS)
FLAGS = tuple(cli._OPTIONS)
_INTS = st.one_of(st.integers(-2, 5).map(str), st.sampled_from(["x", "", "1.5", "-0", " 3"]))
_PARTS = st.one_of(
    st.integers(0, 5).flatmap(lambda n: st.sampled_from(partitions_of(n))).map(str),
    st.sampled_from(["0", "", "3,x", "1,2", "3,,1", "-1", "-3,1", "2,-1", " 2,1"]))
VALUES = {
    "lambda": _PARTS, "mu": _PARTS, "nu": _PARTS, "rank": _INTS, "limit": _INTS,
    "max-size": st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["x", "5.0"])),
    "order": st.sampled_from(["jay", "eff", "index:0", "index:2", "index:-1", "index:x",
                              "sideways"]),
    "format": st.sampled_from(["text", "json", "xml"]),
}


@st.composite
def _option(draw, flag):
    """The flag with a value, in full or as --flag=value, or an abbreviation
    with a value, the flag alone, or a help flag in its place."""
    value = draw(VALUES[flag])
    form = draw(st.integers(0, 4))
    if form < 2:
        return ["--" + flag, value]
    if form == 2:
        return [f"--{flag}={value}"]
    if form == 3:
        return ["--" + flag[:draw(st.integers(1, len(flag) - 1))], value]
    return [draw(st.sampled_from(["-h", "--help", "--" + flag]))]


@st.composite
def argvs(draw):
    """The verb's required options and a few more in any order, now and then
    one dropped: half the time each once and in full, else with repeats,
    other forms, a foreign option now and then, or a bad verb."""
    messy = draw(st.booleans())
    verb = draw(st.sampled_from(VERBS + ("nosuchverb", "verif") * messy))
    own = cli._verb_options(verb) if verb in cli._VERBS else [(flag, False) for flag in FLAGS]
    flags = [flag for flag, required in own if required]
    flags += draw(st.lists(st.sampled_from([flag for flag, required in own
                                            if messy or not required]),
                           max_size=3, unique=not messy))
    if messy and draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(FLAGS)))
    flags = draw(st.permutations(flags))
    if flags and draw(st.integers(0, 4)) == 0:
        flags = flags[1:]
    if not messy:
        return [verb] + [token for flag in flags for token in ("--" + flag, draw(VALUES[flag]))]
    return [verb] + [token for flag in flags for token in draw(_option(flag))]


def _argparse_namespace(argv):
    """vars() of what _build_parser's parser gives for the argv, or None
    where it stops."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_fuzzed_argvs_parse_as_argparse_does_and_exit_cleanly():
    paths = Counter()

    @seed(22)
    @settings(max_examples=200, deadline=None, database=None)
    @given(argvs())
    def check(argv):
        plain = cli._parse_plain(argv)
        if plain is not None:
            assert vars(plain) == _argparse_namespace(argv)
        code, out, _ = _run(argv)
        assert code in (0, 1, 2)
        assert code != 1 or FAILURE.search(out)
        paths["argparse" if plain is None else "plain", code] += 1

    check()
    assert paths["plain", 0] and paths["plain", 2] and paths["argparse", 0] and paths["argparse", 2]
