import argparse
import builtins
import io
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffs import first_difference
from label_strategies import labels
from quantakit import cli, quanta, relalg, vecmonad
from quantakit.cli import main
from quantakit.gates import default_library
from reference.cli import ref_complement_output, ref_matrix_json

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


def test_run_splits_its_input_once(monkeypatch, capsys):
    """``run_quanta`` is the one reader of a ``run`` label."""
    default_library()  # built once per process, splitting its gates' labels
    split_pair, calls = relalg.split_pair, []

    def spy(label):
        calls.append(label)
        return split_pair(label)

    monkeypatch.setattr(relalg, "split_pair", spy)
    monkeypatch.setattr(quanta, "split_pair", spy)
    assert main(["run", "--step", "cnot", "--input", "([1,0,0],1)"]) == 0
    assert calls == ["([1,0,0],1)"]


RUN_17_BITS = "([" + ",".join(["1"] * 17) + "],0)"


@pytest.mark.parametrize("step, label, golden", [
    ("cnot", "([2],0)", "error_run_bad_item.txt"),
    ("bell", RUN_17_BITS, "error_run_over_cap.txt"),
], ids=["bad-item", "over-cap"])
def test_run_refusal_goldens(capsys, step, label, golden):
    assert main(["run", "--step", step, "--input", label]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / golden).read_text())


@pytest.mark.parametrize(
    "step, item, n, states",
    # At 70 items the count exceeds ``sys.maxsize``, which ``len`` cannot
    # return; it is printed all the same.
    [("ccnot", "(1,1)", 9, 699050), ("bell", "1", 17, 524286), ("cnot", "0", 70, 4722366482869645213694)],
)
def test_run_names_the_list_basis_cap(capsys, step, item, n, states):
    label = "([" + ",".join([item] * n) + "],0)"
    assert main(["run", "--step", step, "--input", label]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: list basis has {states} states; capped at 262144\n"


def test_run_refuses_a_count_too_long_to_print(capsys):
    assert main(["run", "--step", "cnot", "--input", "([" + ",".join(["0"] * 20000) + "],0)"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: list basis on lists up to length 20000 has more than 262144 states; capped at 262144\n",
    )


def test_matrix_refuses_a_negative_maxlen_golden(capsys):
    assert main(["matrix", "--step", "cnot", "--maxlen", "-1"]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_negative_maxlen.txt").read_text())


@pytest.mark.parametrize("step, maxlen, named", [
    ("cnot", "5", "maxlen 5 exceeds cap 4"),
    ("alice", "4", "matrix dimension 124 exceeds cap 62"),
])
def test_matrix_names_its_caps(capsys, step, maxlen, named):
    assert main(["matrix", "--step", step, "--maxlen", maxlen]) == 1
    assert capsys.readouterr() == ("", f"error: {named}\n")


def test_run_applies_tol_to_the_library_matrix(capsys):
    assert main(["run", "--step", "bell", "--input", "([1],0)", "--tol", "1e-30"]) == 1
    assert capsys.readouterr().err == "error: gate 'bell' is not unitary at tolerance 1e-30\n"


@pytest.mark.parametrize("command", [["run", "--input", "([1],0)"], ["matrix", "--maxlen", "1"]])
@pytest.mark.parametrize("step", ["cnot", "bell", "cond"])
@pytest.mark.parametrize("tol", ["1e-30", "1e-16", "1e-9"])
def test_tol_judges_the_gap_the_library_measured(monkeypatch, capsys, command, step, tol):
    """The verdict and text that ``is_unitary`` on the step's matrix gives,
    with no unitarity test run per call."""
    fits = vecmonad.is_unitary(default_library().step(step).u, float(tol))

    def measured_again(*args, **kwargs):
        raise AssertionError("unitarity measured again")

    monkeypatch.setattr(vecmonad, "is_unitary", measured_again)
    monkeypatch.setattr(vecmonad, "unitarity_gap", measured_again)
    code = main([command[0], "--step", step, *command[1:], "--tol", tol, "--out", os.devnull])
    err = capsys.readouterr().err
    assert (code, err) == ((0, "") if fits else (1, f"error: gate {step!r} is not unitary at tolerance {float(tol)}\n"))


@pytest.mark.parametrize(
    "args, named",
    [
        (["--step", "cnot"], "synth --step needs --maxlen, a non-negative integer or 'pinned16' (got None)"),
        (["--maxlen", "abc", "--step", "cnot"], "synth --step needs --maxlen, a non-negative integer or 'pinned16' (got 'abc')"),
        (["--maxlen", "-1", "--step", "cnot"], "synth --step needs --maxlen, a non-negative integer or 'pinned16' (got '-1')"),
        *[
            (["--maxlen", n, "--step", step],
             f"step {step!r} is not classical: its slots need controlled gates (not compiled yet)")
            for step in ("bell", "unbell", "alice", "cond") for n in ("1", "4")  # steps without Step.rows
        ],
        # One item past the data register that parse_qasm reads back.
        (["--maxlen", "32768", "--step", "cnot"], "maxlen 32768 needs 65537 data qubits; capped at 65536"),
        (["--maxlen", "21846", "--step", "ccnot"], "maxlen 21846 needs 65539 data qubits; capped at 65536"),
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
        (
            ["--maxlen", "pinned16", "--step", "unbell"],
            "the fold of step 'unbell' leaves the pinned16 basis: output label '([1,0,0],0)' outside target basis",
        ),
        (
            ["--maxlen", "pinned16", "--step", "cond"],
            "the fold of step 'cond' leaves the pinned16 basis: output label '([1,0,0],1)' outside target basis",
        ),
        (["--maxlen", "pinned16", "--step", "x"], "gate 'x' does not act on an (item,payload) pair basis"),
    ],
)
def test_synth_names_a_bad_argument(capsys, args, named):
    assert main(["synth", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--step", "nosuch", "--input", "([],0)"],
    ["matrix", "--step", "nosuch", "--maxlen", "1"],
    ["synth", "--maxlen", "pinned16", "--step", "nosuch"],
], ids=["run", "matrix", "synth"])
def test_an_unknown_gate_is_named_without_the_quotes_of_a_key_error_repr(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_unknown_gate.txt").read_text())


def test_a_key_error_without_one_message_prints_as_str_does(monkeypatch, capsys):
    def lookup(args):
        raise KeyError("a", "b")

    monkeypatch.setattr(cli, "cmd_run", lookup)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert main(["run", "--step", "x", "--input", "([],0)"]) == 1
    assert capsys.readouterr().err == "error: ('a', 'b')\n"


@pytest.mark.parametrize("step", ["id", "cnot", "ccnot", "bell", "unbell", "alice", "cond"])
def test_synth_maxlen_0_is_the_empty_circuit_on_the_payload_qubits(capsys, step):
    qubits = 2 if step == "alice" else 1
    assert main(["synth", "--step", step, "--maxlen", "0", "--qasm", "-"]) == 0
    assert capsys.readouterr() == (
        f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{qubits}];\n{{"size": 0, "cx": 0, "depth": 0}}\n', "")


def test_synth_not_classical_golden(capsys):
    assert main(["synth", "--step", "bell", "--maxlen", "2"]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_synth_not_classical.txt").read_text())


def test_synth_pinned16_accepts_a_bit_pair_step(capsys):
    assert main(["synth", "--maxlen", "pinned16", "--step", "id", "--qasm", "-"]) == 0
    assert capsys.readouterr() == ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n{"size": 0, "cx": 0, "depth": 0}\n', "")


@pytest.mark.parametrize("flags, golden", [([], "check_all.txt"), (["--format", "json"], "check_all.json")])
def test_check_all_golden(capsys, flags, golden):
    assert main(["check", "all", *flags]) == 0
    assert capsys.readouterr().out.encode() == (GOLDENS / golden).read_bytes()


def test_run_alice_json_golden(capsys):
    assert main(["run", "--step", "alice", "--input", "([0,1,1,0,1],(0,1))", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDENS / "run_alice.json").read_bytes()


@pytest.mark.parametrize("step", default_library().names())
def test_matrix_json_prints_what_the_per_cell_printer_printed(capsys, step):
    for maxlen in range(5):
        try:
            m = cli._fold_matrix(step, maxlen, vecmonad.DEFAULT_TOL)
        except (KeyError, ValueError):  # not a step, or over a cap
            continue
        assert main(["matrix", "--step", step, "--maxlen", str(maxlen), "--format", "json"]) == 0
        assert capsys.readouterr().out == ref_matrix_json(m) + "\n"


def test_matrix_json_keeps_each_zero_and_nan_text_of_the_per_cell_printer():
    """Signed zeros, NaNs with other sign and payload bits, infinities and
    subnormals, in every real and imaginary pairing."""
    parts = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1.0, -0.5])
    parts = np.append(parts, np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64))
    re, im = np.meshgrid(parts, parts)
    basis = relalg.FinBasis(tuple(f"x{i}" for i in range(len(parts))))
    m = vecmonad.CMatrix(basis, basis, np.stack([re, im], axis=-1).view(np.complex128)[..., 0])  # bits kept
    assert cli._matrix_json(m) == ref_matrix_json(m)
    assert "[-0.0, 0.0]" in cli._matrix_json(m) and "[0.0, -0.0]" in cli._matrix_json(m)


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


@pytest.mark.parametrize(
    "flags, golden",
    [
        ([], "complement_n9_432.txt"),
        (["--format", "json"], "complement_n9_432.json"),
        (["--matrices", "--labels"], "complement_n9_432_matrices.txt"),
    ],
)
def test_complement_nine_element_golden(capsys, flags, golden):
    """Kernel classes of 4, 3 and 2 elements: 288 complements."""
    assert main(["complement", str(DATA / "n9_432.tbl"), *flags]) == 0
    assert capsys.readouterr().out == (GOLDENS / golden).read_text()


def test_complement_names_an_empty_truth_table_label(capsys):
    assert main(["complement", str(DATA / "empty_label.tbl")]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_empty_label.txt").read_text())


@st.composite
def class_tables(draw):
    """A truth table of 1-8 distinct labels onto classes, and its text."""
    cls = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8))
    src = draw(st.lists(labels, min_size=len(cls), max_size=len(cls), unique=True))
    return "".join(f"{x} -> c{c}\n" for x, c in zip(src, cls))


COMPLEMENT_FLAGS = pytest.mark.parametrize(
    "flags",
    [[], ["--format", "json"], ["--matrices"], ["--matrices", "--labels"]],
    ids=["text", "json", "matrices", "matrices-labels"],
)


def assert_complement_prints_the_reference(table: str, flags: list[str]) -> None:
    rel = relalg.parse_truth_table(table)
    comps = tuple(relalg.quotient(rel.src, p) for p in relalg.minimal_complements(rel))
    ref_args = argparse.Namespace(
        format="json" if "json" in flags else "text",
        matrices="--matrices" in flags,
        labels="--labels" in flags,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "f.tbl", Path(tmp) / "out.txt"
        path.write_text(table)
        assert main(["complement", str(path), "--out", str(out), *flags]) == 0
        got, want = out.read_text(), ref_complement_output(comps, ref_args)
        same = got == want
        assert same, first_difference(got, want)


@COMPLEMENT_FLAGS
@settings(max_examples=40, deadline=None)
@given(table=class_tables())
def test_complement_prints_what_the_label_level_formatting_printed(flags, table):
    assert_complement_prints_the_reference(table, flags)


# Labels whose JSON form needs escapes: a quote, a backslash, a tab, and
# non-ASCII text, one of it outside the Basic Multilingual Plane.
ESCAPED_LABELS = ['q"x', "b\\s", "t\tab", "\u00e9", "\u2603", "\U0001f600", '"', "\\"]


@COMPLEMENT_FLAGS
def test_complement_prints_labels_that_need_json_escapes_as_the_reference(flags):
    table = "".join(f"{x} -> c{c}\n" for x, c in zip(ESCAPED_LABELS, [0, 1, 0, 2, 1, 0, 3, 2]))
    assert_complement_prints_the_reference(table, flags)


@COMPLEMENT_FLAGS
def test_complement_prints_thousands_of_complements_as_the_reference(flags):
    """Kernel classes of 4, 2, 1, 1, 1 and 1 elements, interleaved: 3,072
    complements built from 192 distinct blocks."""
    assert_complement_prints_the_reference((DATA / "n10_4211.tbl").read_text(), flags)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in kilobytes, as Linux gives it")
def test_the_largest_complement_report_streams_in_under_100_mb():
    """At the domain cap, kernel classes of 5 and seven singletons give
    78,125 complements and a 44 MB ``--matrices --labels`` report.  Written
    a chunk at a time, the command peaks near the search's own 50 MB; held
    whole, the report took it to 188 MB.  As in CI, a small fresh
    interpreter runs the command as its child and reads the child's peak:
    a child started straight from this process would count this process's
    own pages in its peak, since Linux keeps the peak across ``exec``."""
    program = ("import resource, subprocess, sys\nsubprocess.run(sys.argv[1:], check=True)\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    argv = ["complement", str(DATA / "n12_5111111.tbl"), "--matrices", "--labels", "--out", os.devnull]
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", program, sys.executable, "-m", "quantakit.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100 * 1024


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--labels"], "--labels needs --matrices"),
        (["--matrices", "--format", "json"], "--matrices does not apply to --format json"),
        (["--labels", "--format", "json"], "--labels does not apply to --format json"),
        (["--matrices", "--labels", "--format", "json"], "--matrices does not apply to --format json"),
    ],
    ids=["labels-alone", "matrices-json", "labels-json", "both-json"],
)
def test_complement_refuses_flags_it_would_ignore(capsys, flags, named):
    assert main(["complement", str(DATA / "xor.tbl"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--step", "cnot", "--maxlen", "2"],
        ["run", "--step", "cnot", "--input", "([1],0)"],
        ["synth", "--maxlen", "pinned16", "--step", "cnot"],
    ],
    ids=["matrix", "run", "synth"],
)
def test_tolerance_must_be_positive_and_finite(capsys, argv, tol):
    assert main([*argv, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be positive and finite\n"


NEAR_IDENTITY = "s0 s1\ns0: 1.0000001+0i 0+0i\ns1: 0+0i 1+0i\n"


def test_synth_tol_reaches_the_permutation_reader(tmp_path, capsys):
    dump = tmp_path / "near.txt"
    dump.write_text(NEAR_IDENTITY)
    assert main(["synth", "--matrix-file", str(dump)]) == 1
    assert capsys.readouterr().err.startswith("error: matrix is not a 0/1 permutation")
    assert main(["synth", "--matrix-file", str(dump), "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out == '{"size": 0, "cx": 0, "depth": 0}\n'


@pytest.mark.parametrize(
    "dump, named",
    [
        ("s0 s1\ns0: 1+0i 1+0i\ns1: 0+0i 0+0i\n", "columns do not form a permutation"),
        (
            "s0 s1\ns0: 0.5+0i 0+0i\ns1: 0+0i 1+0i\n",
            "matrix is not a 0/1 permutation; general unitary synthesis is out of scope",
        ),
        # A NaN compares false with everything, so it counts as a nonzero
        # entry beside the column's 1, not as a zero.
        (
            "s0 s1\ns0: 1+0i nan+0i\ns1: 0+0i 1+0i\n",
            "matrix is not a 0/1 permutation; general unitary synthesis is out of scope",
        ),
        (
            "s0 s1\ns0: 1+0i 0+nani\ns1: 0+0i 1+0i\n",
            "matrix is not a 0/1 permutation; general unitary synthesis is out of scope",
        ),
    ],
    ids=["two-columns-one-row", "half-entry", "nan-real", "nan-imag"],
)
def test_synth_refuses_a_matrix_that_is_no_permutation(tmp_path, capsys, dump, named):
    path = tmp_path / "bad.txt"
    path.write_text(dump)
    assert main(["synth", "--matrix-file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


def test_synth_accepts_entries_within_the_default_tol(tmp_path, capsys):
    dump = tmp_path / "near.txt"
    dump.write_text("s0 s1\ns0: 1+1e-10i 0+0i\ns1: 0+0i 1+0i\n")
    assert main(["synth", "--matrix-file", str(dump)]) == 0
    assert capsys.readouterr().out == '{"size": 0, "cx": 0, "depth": 0}\n'


def test_synth_swaps_two_states_with_one_x(tmp_path, capsys):
    dump = tmp_path / "swap.txt"
    dump.write_text("s0 s1\ns0: 0+0i 1+0i\ns1: 1+0i 0+0i\n")
    assert main(["synth", "--matrix-file", str(dump), "--qasm", "-"]) == 0
    assert capsys.readouterr().out == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n'
        '{"size": 1, "cx": 0, "depth": 1}\n'
    )


def test_synth_refuses_a_dump_whose_rows_reorder_its_header(tmp_path, capsys):
    dump = tmp_path / "reordered.txt"
    dump.write_text("s0 s1\ns1: 0+0i 1+0i\ns0: 1+0i 0+0i\n")
    assert main(["synth", "--matrix-file", str(dump)]) == 1
    assert capsys.readouterr() == ("", "error: matrix bases must match the encoding basis\n")


@pytest.mark.parametrize(
    "body, bits, out, err",
    [
        ("h q[0];\n", "0", "", "error: output is not a computational basis state\n"),
        ("h q[0];\nh q[0];\n", "1", "1\n", ""),
        ("qreg anc[1];\nh anc[0];\n", "0", "", "error: ancillas left dirty: amplitude on data 0, ancillas 1\n"),
    ],
    ids=["superposition", "h-twice", "dirty-ancilla"],
)
def test_simulate_collapses_a_quantum_circuit_to_one_basis_state(tmp_path, capsys, body, bits, out, err):
    path = tmp_path / "h.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n' + body)
    assert main(["simulate", str(path), bits]) == (1 if err else 0)
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["complement", str(DATA / "xor.tbl"), "--tol", "1e-6"],
        ["check", "gates", "--tol", "1e-6"],
        ["synth", "--maxlen", "pinned16", "--step", "cnot", "--format", "json"],
    ],
    ids=["complement-tol", "check-tol", "synth-format"],
)
def test_options_a_command_would_ignore_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_complement_names_a_label_with_a_top_level_comma(tmp_path, capsys):
    table = tmp_path / "bad.tbl"
    table.write_text("(0,0) -> 0\na,b -> 1\n")
    assert main(["complement", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed label 'a,b': brackets must balance and commas sit inside them\n"
    )


def test_synth_names_a_label_with_an_open_bracket(tmp_path, capsys):
    dump = tmp_path / "bad.txt"
    dump.write_text(NEAR_IDENTITY.replace("s1", "(s1"))
    assert main(["synth", "--matrix-file", str(dump), "--tol", "1e-6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed label '(s1': brackets must balance and commas sit inside them\n"
    )


# Every command that writes a file, with each of its output options.
WRITERS = [
    ["matrix", "--step", "bell", "--maxlen", "2", "--out"],
    ["run", "--step", "alice", "--input", "([0,1,1,0,1],(0,1))", "--out"],
    ["complement", str(DATA / "xor.tbl"), "--out"],
    ["synth", "--maxlen", "pinned16", "--step", "cnot", "--out"],
    ["synth", "--maxlen", "pinned16", "--step", "cnot", "--qasm"],
    ["simulate", str(GOLDENS / "single_cx.qasm"), "10", "--out"],
    ["check", "gates", "--out"],
]
WRITER_IDS = ["matrix", "run", "complement", "synth-out", "synth-qasm", "simulate", "check"]


@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_an_unwritable_output_path_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert main([*argv, f"{tmp_path}/"]) == 1  # named as pathlib normalizes it
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_an_empty_output_path_is_named_before_any_work(monkeypatch, capsys, argv):
    """pathlib reads "" as ".", which would fail late as a directory."""
    monkeypatch.setattr(cli, "_write", lambda text, out: pytest.fail("wrote output"))
    assert main([*argv, ""]) == 1
    assert capsys.readouterr() == ("", f"error: empty output path for {argv[-1]}\n")


def _expected(argv: list[str], capsys) -> tuple[str, str]:
    """What ``argv`` writes to the path given after it, and what it prints."""
    assert main([*argv, "-"]) == 0
    out = capsys.readouterr().out
    if argv[-1] == "--qasm":  # the metrics still go to stdout
        return out[:out.index('{"size"')], out[out.index('{"size"'):]
    return out, ""


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.tuples(st.text(st.characters(codec="utf-8"), max_size=40), st.integers(0, 400)),
                      min_size=1, max_size=6))
def test_overwrites_read_back_exactly_the_last_text(texts):
    """Growing, shrinking and empty texts, up to 16,000 characters written
    in up to 400 chunks, leave no stale tail: the file holds what
    ``Path.write_text`` writes afresh."""
    with tempfile.TemporaryDirectory() as tmp:
        out, ref = Path(tmp) / "out.txt", Path(tmp) / "ref.txt"
        for chunk, repeat in texts:
            cli._write([chunk] * repeat, str(out))
        ref.write_text(texts[-1][0] * texts[-1][1])
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_an_output_is_overwritten_in_place(tmp_path, capsys, argv):
    """Over a longer file, through a hard link, and keeping the file's mode."""
    text, printed = _expected(argv, capsys)
    path, link = tmp_path / "out.txt", tmp_path / "link.txt"
    path.write_text("stale\n" * 2000)
    path.chmod(0o640)
    os.link(path, link)
    assert main([*argv, str(path)]) == 0
    assert capsys.readouterr().out == printed
    assert path.read_text() == link.read_text() == text
    assert path.stat().st_ino == link.stat().st_ino and stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_output_gets_the_mode_write_text_gives(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        assert main(["check", "gates", "--out", str(tmp_path / "out.txt")]) == 0
        (tmp_path / "ref.txt").write_text("")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode == (tmp_path / "ref.txt").stat().st_mode


def test_synth_with_one_path_for_qasm_and_metrics_leaves_the_metrics(tmp_path, capsys):
    argv = ["synth", "--maxlen", "pinned16", "--step", "cnot"]
    path = str(tmp_path / "both.txt")
    assert main([*argv, "--qasm", path, "--out", path]) == 0
    assert capsys.readouterr().out == ""
    assert Path(path).read_text() == (GOLDENS / "synth_cnot16_metrics.json").read_text()


def test_simulate_perm4_on_every_input_golden(tmp_path, capsys):
    """What the CI entry-point step prints: the synthesized perm4 circuit
    simulated on each of its 16 inputs, one ``input output`` line each."""
    qasm = tmp_path / "perm4.qasm"
    assert main(["synth", "--matrix-file", str(DATA / "perm4.mat"), "--qasm", str(qasm), "--out", os.devnull]) == 0
    lines = []
    for i in range(16):
        x = format(i, "04b")
        assert main(["simulate", str(qasm), x]) == 0
        lines.append(f"{x} {capsys.readouterr().out}")
    assert "".join(lines) == (GOLDENS / "simulate_perm4.txt").read_text()


def test_simulate_spaced_qasm_on_every_input_golden(capsys):
    """What the CI entry-point step prints: a hand-written QASM file in
    forms the emitter never writes, simulated on each of its 8 inputs."""
    lines = []
    for i in range(8):
        x = format(i, "03b")
        assert main(["simulate", str(DATA / "spaced.qasm"), x]) == 0
        lines.append(f"{x} {capsys.readouterr().out}")
    assert "".join(lines) == (GOLDENS / "simulate_spaced.txt").read_text()


def test_simulate_names_a_reference_outside_anc_golden(capsys):
    assert main(["simulate", str(DATA / "outside_anc.qasm"), "000"]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_outside_anc.txt").read_text())


def test_simulate_names_a_dirty_ancilla_of_a_classical_circuit_golden(capsys):
    """The mask fold names a dirty ancilla as ``simulate_state`` does."""
    assert main(["simulate", str(DATA / "dirty_anc.qasm"), "110"]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_dirty_anc.txt").read_text())


def test_simulate_names_a_dirty_ancilla_of_a_dense_circuit_golden(capsys):
    """The dense statevector names the first dirty basis state, in the mask fold's words."""
    assert main(["simulate", str(DATA / "dirty_anc_dense.qasm"), "01"]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / "error_dirty_anc_dense.txt").read_text())


@pytest.mark.parametrize("name", ["long_index", "qreg_over_cap"])
def test_simulate_names_an_oversized_number_golden(capsys, name):
    assert main(["simulate", str(DATA / f"{name}.qasm"), "000"]) == 1
    assert capsys.readouterr() == ("", (GOLDENS / f"error_{name}.txt").read_text())


@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_an_output_to_dev_null_is_written_and_dropped(capsys, argv):
    _, printed = _expected(argv, capsys)
    assert main([*argv, os.devnull]) == 0
    assert capsys.readouterr() == (printed, "")


@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_no_output_is_opened_to_be_truncated(monkeypatch, tmp_path, capsys, argv):
    """Truncating an output to zero before writing it costs a forced flush
    of its old blocks on some file systems (see ``cli._write``), so outputs
    are opened without ``O_TRUNC``, and never by path in a "w" mode."""
    path = tmp_path / "out.txt"
    opened: list[tuple[str, str, object]] = []

    def spy(orig, kind, key, default):
        def opener(file, *args, **kwargs):
            if not isinstance(file, int):
                opened.append((kind, os.fspath(file), args[0] if args else kwargs.get(key, default)))
            return orig(file, *args, **kwargs)
        return opener

    monkeypatch.setattr(os, "open", spy(os.open, "os.open", "flags", None))
    monkeypatch.setattr(builtins, "open", spy(builtins.open, "open", "mode", "r"))
    monkeypatch.setattr(io, "open", spy(io.open, "open", "mode", "r"))
    for _ in range(3):
        assert main([*argv, str(path)]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    ours = [(kind, how) for kind, name, how in opened if name == str(path)]
    assert len(ours) == 3 and all(kind == "os.open" and not how & os.O_TRUNC for kind, how in ours)



def _outcome(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_the_one_parser_answers_repeated_calls_as_a_fresh_parser_would(monkeypatch, capsys):
    calls = [
        ["run", "--step", "cnot", "--input", "([1,0],1)"],
        ["matrix", "--step", "cnot"],  # argparse: --maxlen is required
        ["run", "--step", "cnot", "--input", "([1,0],1)", "--format", "json"],
        ["check", "gates", "--tol", "1"],  # argparse: check reads no --tol
        ["run", "--step", "nope", "--input", "([],0)"],
        ["synth", "-h"],
        ["run", "--step", "cnot", "--input", "([1,0],1)"],
    ]
    cached = [_outcome(argv, capsys) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_outcome(argv, capsys) for argv in calls] == cached
    assert [code for code, _, _ in cached] == [0, 2, 0, 2, 1, 0, 0]
    assert cached[0] == cached[-1]


def test_library_steps_reach_the_fold_without_a_parse_or_a_materialize(monkeypatch, capsys):
    """Every binding of ``step_shape`` and ``materialize`` in a ``quantakit``
    module is wrapped, as perfbench's tracer wraps them."""
    lib = default_library()
    calls: list[str] = []
    for orig in (quanta.step_shape, vecmonad.materialize):
        def counted(*args, orig=orig):
            calls.append(orig.__name__)
            return orig(*args)

        for name, mod in list(sys.modules.items()):
            if name == "quantakit" or name.startswith("quantakit."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
    pair_gates = [n for n in lib.names() if n not in ("x", "h", "t")]
    for name in pair_gates:
        step = lib.step(name)
        label = f"([{step.item.labels[-1]},{step.item.labels[0]}],{step.payload.labels[-1]})"
        assert main(["run", "--step", name, "--input", label]) == 0
        assert main(["matrix", "--step", name, "--maxlen", "2"]) == 0
        main(["synth", "--maxlen", "pinned16", "--step", name])
    capsys.readouterr()
    assert pair_gates == ["id", "cnot", "ccnot", "bell", "unbell", "alice", "cond"] and calls == []
    quanta.run_quanta(lib.op("cnot"), "([1],0)")  # an ad-hoc step is parsed and materialized once
    assert calls == ["materialize", "step_shape"]
