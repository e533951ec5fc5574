import pytest

from quantakit.cli import main


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
