from pathlib import Path

import pytest

from quantakit.cli import main

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parent / "goldens"


@pytest.mark.parametrize(
    "step, label, named",
    [
        ("cnot", "([2],0)", "item '2' is not in the item basis of step 'cnot' (have: 0, 1)"),
        ("cnot", "([1,0,x],1)", "item 'x'"),
        ("cnot", "([1],5)", "payload '5' is not in the payload basis of step 'cnot' (have: 0, 1)"),
        ("ccnot", "([1],0)", "item '1' is not in the item basis of step 'ccnot' (have: (0,0), (0,1), (1,0), (1,1))"),
    ],
)
def test_run_names_a_label_outside_the_step_basis(capsys, step, label, named):
    assert main(["run", "--step", step, "--input", label]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_run_accepts_labels_inside_the_step_basis(capsys):
    assert main(["run", "--step", "cnot", "--input", "([1,0,0],1)"]) == 0
    assert capsys.readouterr().out == "([1,0,0],0): 1+0i\n"


@pytest.mark.parametrize(
    "step, item, n, states",
    [("ccnot", "(1,1)", 9, 699050), ("bell", "1", 17, 524286)],
)
def test_run_names_the_list_basis_cap(capsys, step, item, n, states):
    label = "([" + ",".join([item] * n) + "],0)"
    assert main(["run", "--step", step, "--input", label]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: list basis has {states} states; capped at 262144\n"


def test_run_applies_tol_to_the_library_matrix(capsys):
    assert main(["run", "--step", "bell", "--input", "([1],0)", "--tol", "1e-30"]) == 1
    assert capsys.readouterr().err == "error: gate 'bell' is not unitary at tolerance 1e-30\n"


@pytest.mark.parametrize(
    "args, named",
    [
        (["--step", "cnot"], "synth --step needs --maxlen, a non-negative integer or 'pinned16' (got None)"),
        (["--maxlen", "abc", "--step", "cnot"], "synth --step needs --maxlen, a non-negative integer or 'pinned16' (got 'abc')"),
        (["--maxlen", "-1", "--step", "cnot"], "synth --step needs --maxlen, a non-negative integer or 'pinned16' (got '-1')"),
        (["--maxlen", "40", "--step", "cnot"], "maxlen 40 exceeds cap 4"),
        (["--maxlen", "1"], "synth needs --step or --matrix-file"),
        (
            ["--maxlen", "pinned16", "--step", "ccnot"],
            "pinned16 needs a step on (bit,bit) pairs; step 'ccnot' has items (0,0), (0,1), (1,0), (1,1) and payloads 0, 1",
        ),
        (
            ["--maxlen", "pinned16", "--step", "alice"],
            "pinned16 needs a step on (bit,bit) pairs; step 'alice' has items 0, 1 and payloads (0,0), (0,1), (1,0), (1,1)",
        ),
        (
            ["--maxlen", "pinned16", "--step", "bell"],
            "the fold of step 'bell' leaves the pinned16 basis: output label '([1,0,0],1)' outside target basis",
        ),
    ],
)
def test_synth_names_a_bad_argument(capsys, args, named):
    assert main(["synth", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


def test_synth_pinned16_accepts_a_bit_pair_step(capsys):
    assert main(["synth", "--maxlen", "pinned16", "--step", "id"]) == 0
    assert capsys.readouterr().out.startswith("{")


@pytest.mark.parametrize(
    "flags, golden",
    [
        ([], "complement_xor.txt"),
        (["--format", "json"], "complement_xor.json"),
        (["--matrices", "--labels"], "complement_xor_matrices.txt"),
    ],
)
def test_complement_xor_golden(capsys, flags, golden):
    assert main(["complement", str(DATA / "xor.tbl"), *flags]) == 0
    assert capsys.readouterr().out == (GOLDENS / golden).read_text()
