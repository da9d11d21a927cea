"""Inputs the CLI must reject with exit 2 and a message naming the problem."""

import pytest

from lrpictures import cli

REF = ["--lambda", "3,1,1", "--mu", "3,2", "--nu", "4,3,2,1"]


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("rank", ["1", "0", "-3"])
def test_verify_embedding_rejects_rank_below_rows(capsys, rank):
    code, out, err = run(capsys, "verify", "--mu", "2,2", "--rank", rank)
    assert code == 2
    assert out == ""
    assert f"rank {rank} below the 2 rows of 2,2" in err


def test_order_index_must_be_decimal(capsys):
    code, out, err = run(capsys, "crystals", *REF, "--order", "index:²")
    assert code == 2
    assert out == ""
    assert "bad order index" in err


def test_verify_with_nu_alone_is_an_input_error(capsys):
    code, out, err = run(capsys, "verify", "--nu", "2")
    assert code == 2
    assert out == ""
    assert err == "error: verify with --nu needs --lambda and --mu as well\n"


@pytest.mark.parametrize("verb", ["sweep", "conjecture"])
def test_a_negative_max_size_is_an_input_error(capsys, verb):
    code, out, err = run(capsys, verb, "--max-size", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --max-size must be nonnegative\n"


@pytest.mark.parametrize("argv, flag", [
    (["verify", *REF, "--order", "index:99"], "--order"),
    (["verify", *REF, "--order", "jay"], "--order"),
    (["verify", "--lambda", "3,1,1", "--mu", "3,2", "--rank", "4"], "--lambda"),
    (["conjecture", "--max-size", "1", "--lambda", "5", "--mu", "7", "--nu", "2"],
     "--lambda, --mu, --nu"),
    (["conjecture", "--max-size", "1", "--rank", "3"], "--rank"),
])
def test_an_option_the_verb_would_ignore_is_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} not used: ")
    assert err.count("\n") == 1


MALFORMED_PARTITIONS = [
    (["count", "--lambda", "1,2", "--mu", "2", "--nu", "3,2"],
     "error: --lambda 1,2: part 1 is 1 but part 2 is 2\n"),
    (["count", "--lambda", "1", "--mu", "2,-1", "--nu", "3,2"],
     "error: --mu 2,-1: part 2 is -1\n"),
    (["count", "--lambda", "1", "--mu", "2", "--nu", "3,x"],
     "error: --nu 3,x: cannot parse partition '3,x': expected comma-separated integers\n"),
    *[([verb, "--lambda", "1", "--mu", "2", "--nu", "2,3"],
       "error: --nu 2,3: part 1 is 2 but part 2 is 3\n")
      for verb in ("pictures", "crystals", "phi", "psi", "verify", "conjecture")],
    (["verify", "--mu", "1,3", "--rank", "3"], "error: --mu 1,3: part 1 is 1 but part 2 is 3\n"),
    (["orders", "--mu", "1,3"], "error: --mu 1,3: part 1 is 1 but part 2 is 3\n"),
    # a value led by "-" goes through argparse
    (["orders", "--mu", "-1"], "error: --mu -1: part 1 is -1\n"),
    (["decompose", "--lambda", "1,2", "--mu", "1", "--rank", "3"],
     "error: --lambda 1,2: part 1 is 1 but part 2 is 2\n"),
    (["decompose", "--lambda", "1", "--mu", "1,x", "--rank", "3"],
     "error: --mu 1,x: cannot parse partition '1,x': expected comma-separated integers\n"),
]


@pytest.mark.parametrize("argv, err", MALFORMED_PARTITIONS,
                         ids=[" ".join(argv) for argv, _ in MALFORMED_PARTITIONS])
def test_a_malformed_partition_is_named_by_its_option(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


# shapes in messages print as the options take them, never as Python tuples
SHAPE_ERRORS = [
    (["count", "--lambda", "2", "--mu", "1", "--nu", "1,1,1"],
     "error: lambda 2 does not fit inside nu 1,1,1\n"),
    (["verify", "--lambda", "3,1", "--mu", "1", "--nu", "2,2,1"],
     "error: lambda 3,1 does not fit inside nu 2,2,1\n"),
    (["decompose", "--lambda", "1", "--mu", "1", "--rank", "0"],
     "error: rank bound 0 must exceed the rows of both shapes: lambda has 1, mu has 1\n"),
    (["decompose", "--lambda", "-", "--mu", "2,1", "--rank", "2"],
     "error: rank bound 2 must exceed the rows of both shapes: lambda has 0, mu has 2\n"),
]


@pytest.mark.parametrize("argv, err", SHAPE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in SHAPE_ERRORS])
def test_a_shape_error_names_the_shapes_as_the_options_do(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_the_rank_floor_of_an_empty_target_names_the_bound_it_enforces(capsys):
    code, out, err = run(capsys, "count", "--lambda", "-", "--mu", "-", "--nu", "-",
                         "--rank", "0")
    assert (code, out) == (2, "")
    assert err == "error: rank bound 0 below 1, the least rank bound\n"


@pytest.mark.parametrize("rank", ["-1", "-3"])
def test_the_rank_floor_of_an_empty_shape_names_the_bound_it_enforces(capsys, rank):
    code, out, err = run(capsys, "verify", "--mu", "-", "--rank", rank)
    assert (code, out) == (2, "")
    assert err == (f"error: rank {rank} below 0, the least entry bound: "
                   "no tableau exists to check\n")


def test_the_rank_floor_of_a_one_row_target_says_row(capsys):
    code, out, err = run(capsys, "count", "--lambda", "-", "--mu", "2", "--nu", "2",
                         "--rank", "0")
    assert (code, out) == (2, "")
    assert err == "error: rank bound 0 below the 1 row of the target\n"


def test_the_rank_floor_of_a_one_row_shape_says_row(capsys):
    code, out, err = run(capsys, "verify", "--mu", "3", "--rank", "0")
    assert (code, out) == (2, "")
    assert err == "error: rank 0 below the 1 row of 3: no tableau exists to check\n"
