import copy
import hashlib
import os
import pickle
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as rt
from diffs import first_difference
from quantakit import circuitgen, cli, gates, quanta, relalg, vecmonad
from quantakit.circuitgen import (
    MAX_QASM_QUBITS,
    MAX_STATE_QUBITS,
    AncillaError,
    Circuit,
    Encoding,
    Gate,
    Metrics,
    NonPermutationError,
    _permutation_of,
    decompose_mcx,
    export_qasm,
    metrics,
    parse_qasm,
    peephole,
    simulate,
    simulate_state,
    synth_fold,
    synth_permutation,
)
from quantakit.cli import main
from quantakit.relalg import FinBasis, SizeLimitError
from quantakit.vecmonad import DEFAULT_TOL, AmpVec, CMatrix, parse_matrix, vec_equal
from reference.circuitgen import (
    ref_export_qasm, ref_gray_chain, ref_label_simulate_state, ref_metrics, ref_parse_qasm,
    ref_permutation_of, ref_simulate, ref_stack_peephole, ref_synth_permutation, ref_transpositions,
)

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parent / "goldens"


def assert_cost_model(c: Circuit) -> None:
    """The counts of ``metrics`` agree with a count over the positions."""
    got, kinds = metrics(c), Counter(g.name for g in c.gates)
    assert got.kinds == {kind: kinds[kind] for kind in circuitgen.GATES}
    assert (got.size, got.cx, got.ancillas) == (len(c.gates), kinds["cx"], c.ancilla_qubits)
    assert got.cx_cost == kinds["cx"] + 6 * kinds["ccx"]
    assert got.t_count == 7 * kinds["ccx"] + kinds["t"] + kinds["tdg"]


@pytest.fixture(autouse=True)
def every_circuit_has_its_cost_model(monkeypatch):
    """Every circuit a test of this file builds, through the public
    constructor or a builder, meets ``assert_cost_model`` at teardown."""
    built = []
    init, trusted = Circuit.__init__, Circuit._trusted

    def recorded_init(self, *args):
        init(self, *args)
        built.append(self)

    def recorded_trusted(cls, *args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(Circuit, "__init__", recorded_init)
    monkeypatch.setattr(Circuit, "_trusted", classmethod(recorded_trusted))
    yield
    for c in built:
        assert_cost_model(c)


# ---------------------------------------------------------------------------
# Strategies

ARITY = {"x": 1, "h": 1, "t": 1, "tdg": 1, "cx": 2, "ccx": 3}
CLASSICAL = ("x", "cx", "ccx", "lowered-mcx")
QUANTUM = CLASSICAL + ("h", "t", "tdg")


@st.composite
def circuits(draw, kinds=QUANTUM, max_gates=12):
    """Circuits of at most 6 qubits.  MCX gates have mixed polarities and
    are lowered onto the ancillas; the other gates act on the data qubits
    only, or in half the circuits on any qubit, which can leave an ancilla
    dirty."""
    total = draw(st.integers(1, 6))
    data = draw(st.integers(1, total))
    ancillas = tuple(range(data, total))
    pool = total if draw(st.booleans()) else data
    out: list[Gate] = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind == "lowered-mcx":
            if data < 2:
                continue
            qs = draw(st.permutations(range(data)))[: draw(st.integers(2, data))]
            pols = tuple(draw(st.integers(0, 1)) for _ in qs[:-1])
            if len(qs) - 3 <= len(ancillas):
                out.extend(decompose_mcx(tuple(zip(qs[:-1], pols)), qs[-1], ancillas))
        elif ARITY[kind] <= pool:
            qs = draw(st.permutations(range(pool)))[: ARITY[kind]]
            out.append(Gate(kind, tuple(qs)))
    return Circuit(data, total - data, tuple(out))


_GRID = st.integers(-8, 8).map(lambda k: k / 8)


@st.composite
def kets(draw, width):
    """Kets whose amplitudes lie on a grid, so that no amplitude the
    circuits produce lands next to the output tolerance."""
    labels = [format(i, f"0{width}b") for i in range(1 << width)]
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    return AmpVec({lbl: complex(draw(_GRID), draw(_GRID)) for lbl in chosen})


def outcome_of(fn, *args):
    """The result of a call, or the type and text of the ValueError (an
    ``AncillaError`` among them) it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Simulation against the reference


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_simulate_state_matches_reference(self, data):
        c = data.draw(circuits())
        v = data.draw(kets(c.data_qubits))
        want = outcome_of(ref_label_simulate_state, c, v)
        got = outcome_of(simulate_state, c, v)
        if isinstance(want, AmpVec):
            assert isinstance(got, AmpVec)
            assert vec_equal(got, want, tol=1e-10)
        else:
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_simulate_matches_reference_exactly(self, data):
        c = data.draw(circuits(kinds=CLASSICAL, max_gates=20))
        bits = data.draw(st.text("01", min_size=c.data_qubits, max_size=c.data_qubits))
        assert outcome_of(simulate, c, bits) == outcome_of(ref_simulate, c, bits)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_simulate_through_the_statevector_matches_reference(self, data):
        c = data.draw(circuits())
        bits = data.draw(st.text("01", min_size=c.data_qubits, max_size=c.data_qubits))
        assert outcome_of(simulate, c, bits) == outcome_of(ref_simulate, c, bits)

    def test_simulate_checks_its_input(self):
        c = Circuit(2, 0, (Gate("cx", (0, 1)),))
        for bad in ("1", "012", "1a"):
            with pytest.raises(ValueError, match="2 bits"):
                simulate(c, bad)
        with pytest.raises(ValueError, match="must be 2 bits"):
            simulate_state(c, AmpVec({"102": 1.0}))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_simulate_state_names_the_first_bad_label_in_ket_order(self, data):
        """On the lanes (classical) and the dense path alike, against the
        check by length and character set that both paths once shared."""
        d = data.draw(st.integers(0, 4))
        label = (st.text("01", min_size=d, max_size=d) | st.text("01", max_size=d + 2)
                 | st.text("01a_ +\x00é１", max_size=d + 1))
        v = AmpVec({x: 1.0 for x in data.draw(st.lists(label, min_size=1, max_size=8, unique=True))})
        bad = [x for x, _ in v.items() if len(x) != d or set(x) - {"0", "1"}]
        classical = Circuit(d, 1, (Gate("x", (d,)), Gate("x", (d,))))
        hadamards = Circuit(d, 1, (Gate("h", (d,)), Gate("h", (d,))))
        for c in (classical, hadamards):
            if bad:
                with pytest.raises(ValueError) as exc:
                    simulate_state(c, v)
                assert str(exc.value) == f"state label {bad[0]!r} must be {d} bits"
            else:
                assert vec_equal(simulate_state(c, v), v)


class TestAncillas:
    def test_dirty_ancilla_on_the_classical_path(self):
        c = Circuit(2, 1, (Gate("ccx", (0, 1, 2)),))
        assert simulate(c, "10") == "10"
        with pytest.raises(AncillaError, match="^ancillas left dirty: amplitude on data 11, ancillas 1$"):
            simulate(c, "11")

    def test_dirty_ancilla_on_the_statevector_path(self):
        c = Circuit(2, 1, (Gate("ccx", (0, 1, 2)),))
        with pytest.raises(AncillaError, match="^ancillas left dirty: amplitude on data 11, ancillas 1$"):
            simulate_state(c, AmpVec({"00": 0.6, "11": 0.8}))
        with pytest.raises(AncillaError, match="^ancillas left dirty: amplitude on data 0, ancillas 1$"):
            simulate(Circuit(1, 1, (Gate("h", (1,)),)), "0")

    def test_amplitudes_at_tolerance_are_dropped_before_the_ancilla_check(self):
        c = Circuit(1, 1, (Gate("cx", (0, 1)),))
        out = simulate_state(c, AmpVec({"0": 1.0, "1": 1e-10}))
        assert dict(out.items()) == {"0": 1.0}

    @pytest.mark.parametrize("small", [2 * DEFAULT_TOL, 5e-7, 0.99e-6])
    def test_the_dense_path_keeps_what_is_above_the_tolerance_and_drops_the_rest(self, small):
        # A t gate keeps the circuit off the lanes; it leaves "01", whose qubit 0 is 0, as it is.
        c = Circuit(2, 0, (Gate("t", (0,)),))
        kept = simulate_state(c, AmpVec({"10": 1.0, "01": small}))
        assert [label for label, _ in kept.items()] == ["01", "10"] and kept["01"] == small
        for tiny in (DEFAULT_TOL, DEFAULT_TOL / 2):
            dropped = simulate_state(c, AmpVec({"10": 1.0, "01": tiny}))
            assert [label for label, _ in dropped.items()] == ["10"]

    def test_lowered_mcx_returns_ancillas_clean(self):
        controls = ((0, 1), (1, 0), (2, 1), (3, 1))
        c = Circuit(5, 2, decompose_mcx(controls, 4, (5, 6)))
        for i in range(32):
            bits = format(i, "05b")
            fire = bits[:4] == "1011"
            want = bits[:4] + (str(1 - int(bits[4])) if fire else bits[4])
            assert simulate(c, bits) == want


def text_of(fn, *args) -> str:
    """The text of the error a simulator call raises."""
    with pytest.raises((AncillaError, ValueError)) as exc:
        fn(*args)
    return f"{type(exc.value).__name__}: {exc.value}"


# A classical circuit and the same with a t, which runs on the dense path;
# on input 01 both leave ancilla qubit 2 set.
EDGE_CIRCUITS = {
    "classical": Circuit(2, 2, (Gate("cx", (0, 3)), Gate("cx", (1, 2)))),
    "dense": Circuit(2, 2, (Gate("cx", (0, 3)), Gate("cx", (1, 2)), Gate("t", (1,)))),
}


class TestOneLabelRule:
    """``simulate`` reads, names and prints bits as ``simulate_state``
    does, on the mask fold and on the dense path alike."""

    @pytest.mark.parametrize("kind", EDGE_CIRCUITS)
    @pytest.mark.parametrize("bad", ["", "0", "012", "1a", "٠١", "01\n", " 01"])
    def test_a_bad_input_has_one_text(self, kind, bad):
        c = EDGE_CIRCUITS[kind]
        want = f"ValueError: state label {bad!r} must be 2 bits"
        assert text_of(simulate, c, bad) == text_of(simulate_state, c, AmpVec({bad: 1.0})) == want
        assert text_of(ref_simulate, c, bad) == want

    @pytest.mark.parametrize("kind", EDGE_CIRCUITS)
    def test_a_dirty_ancilla_has_one_text(self, kind):
        c = EDGE_CIRCUITS[kind]
        want = "AncillaError: ancillas left dirty: amplitude on data 01, ancillas 10"
        assert text_of(simulate, c, "01") == text_of(simulate_state, c, AmpVec({"01": 1.0})) == want
        if kind == "classical":  # the label-dict reference of the dense path has a text of its own
            assert text_of(ref_simulate, c, "01") == want
        assert simulate(c, "00") == "00"

    def test_a_one_state_encoding_round_trips_through_synthesis_and_simulate(self):
        basis = FinBasis(("s",))
        enc = Encoding(basis)
        assert (enc.width, enc.bits_of("s")) == (0, "")
        c = synth_permutation(CMatrix(basis, basis, np.eye(1, dtype=np.complex128)))
        assert c == Circuit(0, 0, ())
        assert simulate(c, enc.bits_of("s")) == ""
        assert dict(simulate_state(c, AmpVec({"": 1.0})).items()) == {"": 1.0}


class TestQubitCap:
    def test_statevector_over_the_cap_is_refused(self):
        # One h keeps the circuit off the lane path, which has no cap.
        c = Circuit(MAX_STATE_QUBITS - 1, 2, (Gate("h", (0,)),))
        with pytest.raises(SizeLimitError, match=f"capped at {MAX_STATE_QUBITS}"):
            simulate_state(c, AmpVec({"0" * (MAX_STATE_QUBITS - 1): 1.0}))

    def test_statevector_at_the_cap_runs(self):
        c = Circuit(MAX_STATE_QUBITS, 0, (Gate("h", (0,)),))
        out = simulate_state(c, AmpVec({"0" * MAX_STATE_QUBITS: 1.0}))
        assert len(out) == 2

    def test_classical_path_has_no_cap(self):
        n = 3 * MAX_STATE_QUBITS
        c = Circuit(n, 0, (Gate("cx", (0, n - 1)),))
        assert simulate(c, "1" + "0" * (n - 1)) == "1" + "0" * (n - 2) + "1"

    def test_lane_path_has_no_cap(self):
        n = 3 * MAX_STATE_QUBITS
        rng = np.random.default_rng(21)
        gs = [Gate(name, tuple(int(q) for q in rng.choice(n, k, replace=False)))
              for name, k in [("x", 1), ("cx", 2), ("ccx", 3)] * 40]
        c = Circuit(n, 0, tuple(gs))
        x = "".join(rng.choice(["0", "1"], n))
        assert list(simulate_state(c, AmpVec({x: 1.0})).items()) == [(simulate(c, x), 1.0)]


# ---------------------------------------------------------------------------
# The slot schedule: a classical step's fold compiled slot by slot


class TestSlotSchedule:
    @pytest.mark.parametrize("maxlen", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["id", "cnot", "ccnot"])
    def test_synth_maps_every_encoded_list_as_run_quanta_does(self, tmp_path, capsys, name, maxlen):
        qasm = tmp_path / "fold.qasm"
        assert main(["synth", "--step", name, "--maxlen", str(maxlen), "--qasm", str(qasm)]) == 0
        c, step = parse_qasm(qasm.read_text()), gates.default_library().step(name)
        enc = circuitgen.ListEncoding(maxlen, step.item, step.payload)
        kind = {"id": None, "cnot": "cx", "ccnot": "ccx"}[name]  # one gate per slot
        m = metrics(c)
        assert m.kinds == {k: maxlen * (k == kind) for k in circuitgen.GATES}
        assert (m.depth, m.ancillas) == (maxlen if kind else 0, 0)
        assert capsys.readouterr().out == m.to_json() + "\n"
        assert c.data_qubits == maxlen * (1 + enc.item_width) + 1
        for label in quanta.ListBasis(maxlen, step.item, step.payload).labels:
            [(out, _)] = quanta.run_quanta(step, label).items()
            assert simulate(c, enc.bits_of(label)) == enc.bits_of(out)

    @pytest.mark.parametrize("name, printed, kinds, cost", [
        ("id", '{"size": 0, "cx": 0, "depth": 0}', {}, (0, 0)),
        ("cnot", '{"size": 4, "cx": 4, "depth": 4}', {"cx": 4}, (4, 0)),
        ("ccnot", '{"size": 4, "cx": 0, "depth": 4}', {"ccx": 4}, (24, 28)),
    ])
    def test_maxlen_4_metrics_are_pinned(self, monkeypatch, capsys, name, printed, kinds, cost):
        """Past ``matrix``'s caps for ``ccnot``, with no fold matrix built."""
        monkeypatch.setattr(quanta, "fold_matrix", lambda *a: pytest.fail("built the fold matrix"))
        built = []
        monkeypatch.setattr(circuitgen, "synth_fold", lambda *a: built.append(synth_fold(*a)) or built[-1])
        assert main(["synth", "--step", name, "--maxlen", "4"]) == 0
        assert capsys.readouterr() == (printed + "\n", "")
        m = metrics(built[0])
        assert m.kinds == {k: kinds.get(k, 0) for k in circuitgen.GATES}
        assert (m.ancillas, m.cx_cost, m.t_count) == (0, *cost)

    @pytest.mark.parametrize("maxlen", [64, 1024])
    @pytest.mark.parametrize("name", ["cnot", "ccnot"])
    def test_a_long_fold_xors_each_item_into_the_payload(self, tmp_path, name, maxlen):
        """Past the lists ``run_quanta`` takes, so the fold is written out
        here: slot k is an occupancy bit, then the item's bits (a for
        ``cnot``, a and b for ``ccnot``), all 0 when unoccupied, and the
        payload bit last.  The items stay, and the payload is xored with
        each item (``cnot``) or with each item's a and b (``ccnot``)."""
        qasm = tmp_path / "fold.qasm"
        assert main(["synth", "--step", name, "--maxlen", str(maxlen), "--qasm", str(qasm), "--out", os.devnull]) == 0
        c = parse_qasm(qasm.read_text())
        width = 1 if name == "cnot" else 2
        assert (c.data_qubits, c.ancilla_qubits) == (maxlen * (1 + width) + 1, 0)
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(0, maxlen + 1))
            items = rng.integers(0, 2, size=(n, width))
            payload = int(rng.integers(0, 2))
            slots = "".join("1" + "".join(map(str, item)) for item in items) + "0" * (1 + width) * (maxlen - n)
            want = payload ^ (int(items.all(axis=1).sum()) % 2)  # a for cnot, a and b for ccnot
            assert simulate(c, slots + str(payload)) == slots + str(want)

    @pytest.mark.parametrize("name, cap", [("cnot", 32767), ("ccnot", 21845)])
    def test_the_qubit_cap_refuses_before_any_gate_is_built(self, monkeypatch, tmp_path, capsys, name, cap):
        """The longest list compiles and reads back; one more item is
        refused by ``synth_fold`` with no gate built."""
        qasm = tmp_path / "fold.qasm"
        assert main(["synth", "--step", name, "--maxlen", str(cap), "--qasm", str(qasm)]) == 0
        c = parse_qasm(qasm.read_text())
        assert (c.data_qubits, len(c.gates)) == (MAX_QASM_QUBITS - (name == "cnot"), cap)
        capsys.readouterr()
        monkeypatch.setattr(circuitgen, "Gate", lambda *a: pytest.fail("built a gate"))
        monkeypatch.setattr(circuitgen, "synth_permutation", lambda *a: pytest.fail("synthesized the step"))
        assert main(["synth", "--step", name, "--maxlen", str(cap + 1)]) == 1
        width = (cap + 1) * (2 if name == "cnot" else 3) + 1
        assert capsys.readouterr() == ("", f"error: maxlen {cap + 1} needs {width} data qubits; capped at 65536\n")
        step = gates.default_library().step(name)
        with pytest.raises(SizeLimitError):
            synth_fold(step.u, circuitgen.ListEncoding(cap + 1, step.item, step.payload))

    def test_every_slot_shares_the_steps_ancilla(self):
        """A swap under three item controls lowers to a ccx ladder on one
        ancilla; the fold keeps one, and every list maps as run_quanta maps it."""
        item = FinBasis(tuple("abcdefgh"))
        src = relalg.product_basis(item, relalg.BIT)
        u = CMatrix(src, src, np.eye(16)[[*range(14), 15, 14]].astype(complex))  # (h,0) <-> (h,1)
        enc = circuitgen.ListEncoding(3, item, relalg.BIT)
        c = synth_fold(u, enc)
        assert (c.data_qubits, c.ancilla_qubits, metrics(c).kinds["ccx"]) == (13, 1, 9)
        step = quanta.Step(u, item, relalg.BIT)
        for label in quanta.ListBasis(3, item, relalg.BIT).labels:
            [(out, _)] = quanta.run_quanta(step, label).items()
            assert simulate(c, enc.bits_of(label)) == enc.bits_of(out)

    @pytest.mark.parametrize("name", ["cnot", "ccnot"])
    def test_qasm_golden(self, capsys, name):
        assert main(["synth", "--step", name, "--maxlen", "2", "--qasm", "-"]) == 0
        assert capsys.readouterr() == ((GOLDENS / f"synth_{name}_maxlen2.txt").read_text(), "")

    def test_the_encoding_lays_out_occupancy_and_item_bits_slot_1_first(self):
        enc = circuitgen.ListEncoding(3, FinBasis(("a", "b", "c", "d")), FinBasis(("p", "q")))
        assert (enc.width, enc.slot(2), enc.slot(3)) == (10, (4, 5, 9), (7, 8, 9))
        assert enc.bits_of("([c,b],q)") == "110" + "101" + "000" + "1"
        assert enc.bits_of("([],p)") == "0" * 10
        with pytest.raises(ValueError, match=r"^list \[a,a,a,a\] has more than 3 items$"):
            enc.bits_of("([a,a,a,a],p)")
        with pytest.raises(ValueError, match="^basis size 3 is not a power of two$"):
            circuitgen.ListEncoding(1, FinBasis(("a", "b", "c")), FinBasis(("p",)))

    def test_a_step_that_moves_an_unoccupied_slot_is_refused(self):
        lib = gates.default_library()
        enc = circuitgen.ListEncoding(2, lib.step("cnot").item, lib.step("cnot").payload)
        flip = CMatrix(lib.step("cnot").u.src, lib.step("cnot").u.src, np.eye(4)[[1, 0, 2, 3]].astype(complex))
        with pytest.raises(ValueError, match=r"^step moves an \(item 0, payload\) state, which an unoccupied slot"
                                             r" holds; its slots would need occupancy controls$"):
            circuitgen.synth_fold(flip, enc)
        with pytest.raises(ValueError, match=r"^step basis must be the \(item, payload\) pairs of the encoding$"):
            circuitgen.synth_fold(lib.step("ccnot").u, enc)


# ---------------------------------------------------------------------------
# Pinned references


class TestPinnedReferences:
    def test_single_cx_golden(self, capsys):
        cnot = gates.default_library().matrix("cnot")
        circ = synth_permutation(cnot)
        golden = (GOLDENS / "single_cx.qasm").read_text()
        assert export_qasm(circ) == golden
        assert parse_qasm(golden).gates == circ.gates
        for bits, want in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
            assert main(["simulate", str(GOLDENS / "single_cx.qasm"), bits]) == 0
            assert capsys.readouterr().out == want + "\n"

    def test_matrix_file_synthesis_golden(self, capsys):
        argv = ["synth", "--matrix-file", str(DATA / "perm4.mat"), "--qasm", "-"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (GOLDENS / "synth_perm4.txt").read_text()
        assert "qreg anc[1];" in captured.out

    def test_perm6_metrics_golden(self, tmp_path, capsys):
        """A seeded 64-state permutation: its metrics JSON is the golden,
        its route takes 3 ancillas, and the circuit maps every input."""
        qasm, out = tmp_path / "perm6.qasm", tmp_path / "metrics.json"
        argv = ["synth", "--matrix-file", str(DATA / "perm6.mat"), "--qasm", str(qasm), "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (GOLDENS / "synth_perm6_metrics.json").read_bytes()
        c = parse_qasm(qasm.read_text())
        assert c.ancilla_qubits == metrics(c).ancillas == 3
        m = parse_matrix((DATA / "perm6.mat").read_text())
        for j, label in enumerate(m.src.labels):
            image = m.tgt.labels[int(np.argmax(np.abs(m.entries[:, j])))]
            assert simulate(c, format(j, "06b")) == format(m.tgt.index(image), "06b")

    def test_pinned16_synthesis_and_io_table(self, tmp_path, capsys):
        qasm, out = tmp_path / "cnot16.qasm", tmp_path / "metrics.json"
        argv = ["synth", "--maxlen", "pinned16", "--step", "cnot", "--qasm", str(qasm)]
        assert main(argv + ["--out", str(out)]) == 0
        golden = (GOLDENS / "synth_cnot16_metrics.json").read_bytes()
        assert out.read_bytes() == golden
        assert len(rt.IO_TABLE_16) == 16
        for inp, want, _label in rt.IO_TABLE_16:
            assert main(["simulate", str(qasm), inp]) == 0
            assert capsys.readouterr().out == want + "\n"


# ---------------------------------------------------------------------------
# Peephole cancellation

_WORD_POOL = (
    Gate("x", (0,)), Gate("x", (1,)), Gate("h", (0,)), Gate("h", (2,)),
    Gate("cx", (0, 1)), Gate("cx", (1, 0)), Gate("ccx", (0, 1, 2)),
    Gate("t", (0,)), Gate("tdg", (0,)),
)
_SELF_INVERSE = tuple(g for g in _WORD_POOL if g.name in ("x", "cx", "ccx", "h"))


@st.composite
def words(draw):
    """Gate words over three qubits with nested cancelling pairs planted
    into them, and t and tdg gates that block some of the pairs.
    Each gate is either a pool instance or a fresh equal copy, so some
    cancelling pairs are one shared object and some are two."""

    def planted(g: Gate) -> Gate:
        return Gate(g.name, g.qubits) if draw(st.booleans()) else g

    word = [planted(g) for g in draw(st.lists(st.sampled_from(_WORD_POOL), max_size=20))]
    for _ in range(draw(st.integers(0, 4))):
        inner = draw(st.lists(st.sampled_from(_SELF_INVERSE), min_size=1, max_size=4))
        at = draw(st.integers(0, len(word)))
        word[at:at] = [planted(g) for g in inner + inner[::-1]]
    return Circuit(3, 0, tuple(word))


class TestPeephole:
    def test_nested_pairs_cancel_and_blockers_stay(self):
        x0, cx, t = Gate("x", (0,)), Gate("cx", (0, 1)), Gate("t", (0,))
        c = Circuit(2, 0, (x0, cx, cx, x0, t, t, x0, t, x0))
        assert peephole(c).gates == (t, t, x0, t, x0)


# ---------------------------------------------------------------------------
# Permutation synthesis against the route it replaced

def perm_matrix(perm: list[int]) -> CMatrix:
    """The 0/1 matrix whose column j has its 1 in row perm[j]."""
    basis = FinBasis(tuple(f"s{j}" for j in range(len(perm))))
    entries = np.zeros((len(perm), len(perm)), dtype=np.complex128)
    entries[perm, np.arange(len(perm))] = 1.0
    return CMatrix(basis, basis, entries)


@st.composite
def power_of_two_permutations(draw, max_width=7):
    k = draw(st.integers(0, max_width))
    return draw(st.permutations(range(1 << k)))


class TestSynthesisAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(power_of_two_permutations())
    def test_same_circuit_qasm_and_metrics_on_shared_gates(self, perm):
        m = perm_matrix(perm)
        got = synth_permutation(m)
        assert len({id(g) for g in got.gates}) == len(set(got.gates))
        want = ref_synth_permutation(m, Encoding(m.src))
        same = got == want
        assert same, first_difference([got.data_qubits, got.ancilla_qubits, *got.gates],
                                      [want.data_qubits, want.ancilla_qubits, *want.gates])
        qasm, ref_qasm = export_qasm(got), ref_export_qasm(want)
        same = qasm == ref_qasm
        assert same, first_difference(qasm, ref_qasm)
        assert metrics(got) == ref_metrics(want)

    @pytest.mark.parametrize("perm", [
        np.random.default_rng(9).permutation(64).tolist(),
        [1, 0, 2, 3, 4, 5, 6, 7],  # one swap, on target 2
        [0, 1, 2, 7, 4, 5, 6, 3],  # a chain over targets 0 and 2
    ])
    def test_each_target_is_lowered_once_and_each_gate_built_once(self, monkeypatch, perm):
        calls, built = [], []
        lower = circuitgen._mcx_core

        def counted(qs, target, ancillas):
            calls.append((qs, target))
            return lower(qs, target, ancillas)

        def counted_gate(name, qubits):
            built.append((name, qubits))
            return Gate(name, qubits)

        m = perm_matrix(perm)
        width = len(perm).bit_length() - 1
        targets = {
            g.qubits[-1]
            for u, v in ref_transpositions(perm)
            for g in ref_gray_chain(u, v, width)
        }
        want = ref_synth_permutation(m, Encoding(m.src))
        monkeypatch.setattr(circuitgen, "_mcx_core", counted)
        monkeypatch.setattr(circuitgen, "Gate", counted_gate)
        got = synth_permutation(m)
        # One lowering per target used, on every other data qubit.
        assert sorted(t for _, t in calls) == sorted(targets)
        assert all(qs == tuple(q for q in range(width) if q != t) for qs, t in calls)
        # Each distinct gate is built once; no entry cancels at every use here.
        assert len(built) == len(set(built)) == len(set(want.gates))
        assert got == want

    def test_an_entry_that_cancels_at_every_use_is_dropped(self, monkeypatch):
        """Two equal swaps cancel whole where they meet only if each has at
        most one flip, since a swap's flips stand in the same order on both
        sides of its core; no permutation of up to 8 states has a table
        entry that cancels at every use.  So the transposition (0 2) is
        added twice after that of [1, 0, 2, 3]: its one swap, x(1) cx(1,0)
        x(1), meets itself and cancels whole, and its two entries go."""
        transpositions = circuitgen._transpositions
        monkeypatch.setattr(circuitgen, "_transpositions", lambda perm: transpositions(perm) + [(0, 2)] * 2)
        got = synth_permutation(perm_matrix([1, 0, 2, 3]))
        x0, cx = Gate("x", (0,)), Gate("cx", (0, 1))
        assert got == Circuit(2, 0, (x0, cx, x0))
        assert set(got._table) == {x0, cx}
        assert_as_public(got)
        raw = (x0, cx, x0) + (Gate("x", (1,)), Gate("cx", (1, 0)), Gate("x", (1,))) * 2
        assert got == ref_stack_peephole(Circuit(2, 0, raw))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_permutation_reader_matches_reference(self, data):
        n = data.draw(st.sampled_from((1, 2, 3, 4)))
        cells = (0, 1, 0.5, 2, -1, 1 + 1e-10j, 1e-10, 1 + 1e-6j, float("nan"))
        if data.draw(st.booleans()):
            entries = np.zeros((n, n), dtype=np.complex128)
            entries[data.draw(st.permutations(range(n))), np.arange(n)] = 1.0
            for _ in range(data.draw(st.integers(0, 2))):
                i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
                entries[i, j] = data.draw(st.sampled_from(cells))
        else:
            flat = data.draw(st.lists(st.sampled_from(cells), min_size=n * n, max_size=n * n))
            entries = np.array(flat, dtype=np.complex128).reshape(n, n)
        basis = FinBasis(tuple(f"s{j}" for j in range(n)))
        m = CMatrix(basis, basis, entries)
        tol = data.draw(st.sampled_from((1e-9, 1e-6, 0.6)))
        assert outcome_of(_permutation_of, m, tol) == outcome_of(ref_permutation_of, m, tol)

    def test_permutation_reader_refuses_an_entry_above_one_plus_tol(self):
        """At tol 0.6, 0.5 is the column's one entry near 1 and 2 its one
        entry above tol, so only the 1 + tol bound refuses it."""
        basis = FinBasis(("s0", "s1"))
        m = CMatrix(basis, basis, np.array([[0.5, 0], [2, 1]], dtype=np.complex128))
        with pytest.raises(NonPermutationError, match="not a 0/1 permutation"):
            _permutation_of(m, 0.6)
        assert outcome_of(ref_permutation_of, m, 0.6) == outcome_of(_permutation_of, m, 0.6)

    def test_permutation_reader_refuses_a_non_square_matrix(self):
        m = CMatrix(FinBasis(("a",)), FinBasis(("a", "b")), np.ones((2, 1), dtype=np.complex128))
        with pytest.raises(NonPermutationError, match="not square"):
            _permutation_of(m)

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_a_basis_size_that_is_no_power_of_two_is_named(self, size):
        basis = FinBasis(tuple(f"s{i}" for i in range(size)))
        with pytest.raises(ValueError, match=f"^basis size {size} is not a power of two$"):
            Encoding(basis)
        with pytest.raises(ValueError, match=f"^basis size {size} is not a power of two$"):
            synth_permutation(CMatrix(basis, basis, np.eye(size, dtype=np.complex128)))


def test_metrics_of_a_small_circuit():
    c = Circuit(3, 0, (
        Gate("cx", (0, 1)), Gate("x", (2,)), Gate("ccx", (0, 1, 2)), Gate("cx", (0, 1)),
    ))
    assert metrics(c) == Metrics(size=4, cx=2, depth=3)
    assert metrics(Circuit(0, 0, ())) == Metrics(size=0, cx=0, depth=0)


# ---------------------------------------------------------------------------
# QASM text


@st.composite
def exportable_circuits(draw):
    """Circuits without mcx, drawn from a small pool of distinct gates so
    that lines repeat."""
    total = draw(st.integers(1, 6))
    data = draw(st.integers(1, total))
    kinds = [k for k, a in ARITY.items() if a <= total]
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        pool.append(Gate(kind, tuple(draw(st.permutations(range(total)))[: ARITY[kind]])))
    seq = draw(st.lists(st.sampled_from(pool), max_size=30))
    return Circuit(data, total - data, tuple(seq))


class TestQasm:
    @settings(max_examples=100, deadline=None)
    @given(exportable_circuits())
    def test_export_parse_round_trip(self, c):
        text = export_qasm(c)
        back = parse_qasm(text)
        assert back == c
        assert export_qasm(back) == text

    @settings(max_examples=100, deadline=None)
    @given(exportable_circuits(), st.data())
    def test_respaced_exports_read_back_as_emitted(self, c, data):
        """Each distinct gate line of the export is rewritten once, with
        random spaces and tabs around its name, references and semicolon
        and leading zeros on its indices, and each occurrence is padded at
        both ends.  The text reads back as ``c``, with its lines shared as
        those of the emitted text are."""
        text = export_qasm(c)
        gap = st.text(" \t", max_size=3)
        respaced: dict[str, str] = {}

        def respace(line: str) -> str:
            name, refs = line[:-1].split(" ")
            parts = []
            for ref in refs.split(","):
                reg, index = ref[:-1].split("[")
                zeros = "0" * data.draw(st.integers(0, 3))
                parts.append(f"{data.draw(gap)}{reg}[{zeros}{index}]{data.draw(gap)}")
            sep = data.draw(st.sampled_from((" ", "\t"))) + data.draw(gap)
            return f"{name}{sep}{','.join(parts)}{data.draw(gap)};"

        lines = []
        for line in text.splitlines():
            if not line.startswith(("OPENQASM", "include", "qreg")):
                if line not in respaced:
                    respaced[line] = respace(line)
                line = data.draw(gap) + respaced[line] + data.draw(gap)
            lines.append(line)
        back = parse_qasm("\n".join(lines))
        assert back == c
        assert sharing(back) == sharing(parse_qasm(text))
        assert_as_public(back)

    def test_repeated_lines_share_one_gate(self):
        text = export_qasm(Circuit(2, 0, (Gate("cx", (0, 1)), Gate("h", (0,))) * 3))
        c = parse_qasm(text.replace("cx q[0],q[1];", "  cx q[0],q[1];  ", 1))
        assert c.gates[0] is c.gates[2] is c.gates[4]
        assert c.gates[1] is c.gates[3] is c.gates[5]

    @pytest.mark.parametrize("kind", list(ARITY))
    def test_every_gate_kind_round_trips(self, kind):
        c = Circuit(2, 1, (Gate(kind, tuple(range(ARITY[kind]))[::-1]),))
        text = export_qasm(c)
        assert parse_qasm(text) == c
        assert export_qasm(parse_qasm(text)) == text

    def test_comments_and_blank_lines_are_skipped(self):
        c = parse_qasm('OPENQASM 2.0;\n// note\n\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n')
        assert c == Circuit(1, 0, (Gate("x", (0,)),))

    @pytest.mark.parametrize(
        "body, named",
        [
            ("qreg q[2];\nqreg anc[1];\nx q[2];", "q[2]"),
            ("qreg q[2];\nqreg anc[1];\ncx q[0],anc[1];", "anc[1]"),
            ("qreg q[2];\nx anc[0];", "anc[0]"),
            ("qreg q[2];\nx q[0];\nqreg q[3];", "register q declared twice"),
            ("qreg q[2];\nqreg anc[1];\nqreg anc[1];", "register anc declared twice"),
            ("x q[0];\nqreg q[1];", "gate before qreg"),
            ("qreg q[1];\ny q[0];", "unsupported QASM line"),
            ("qreg q[2];\nch q[0],q[1];", "unsupported QASM line"),
            ("qreg q[2];\nmcx q[0],q[1];", "unsupported QASM line"),
        ],
    )
    def test_bad_registers_fail_with_a_named_error(self, tmp_path, capsys, body, named):
        path = tmp_path / "bad.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body + "\n")
        assert main(["simulate", str(path), "00"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_ancilla_register_may_follow_gates_on_data(self, tmp_path, capsys):
        path = tmp_path / "late.qasm"
        path.write_text("qreg q[2];\nx q[0];\nqreg anc[1];\nccx q[0],q[1],anc[0];\nccx q[0],q[1],anc[0];\n")
        assert main(["simulate", str(path), "01"]) == 0
        assert capsys.readouterr().out == "11\n"

    @pytest.mark.parametrize("reg", ["q", "anc"])
    def test_a_register_is_capped_where_it_is_declared(self, reg):
        decl = f"qreg q[1];\nqreg {reg}[{MAX_QASM_QUBITS}];" if reg == "anc" else f"qreg q[{MAX_QASM_QUBITS}];"
        last = MAX_QASM_QUBITS - 1 + (reg == "anc")
        c = parse_qasm(f"{decl}\nx {reg}[{MAX_QASM_QUBITS - 1}];")
        assert c.gates == (Gate("x", (last,)),)
        for size in (MAX_QASM_QUBITS + 1, "0" * 9 + str(MAX_QASM_QUBITS + 1), "9" * 5000):
            with pytest.raises(SizeLimitError) as info:
                parse_qasm(f"qreg {reg}[{size}];\nx q[0];\ny q[0];")
            assert str(info.value) == f"register {reg} has {str(size).lstrip('0')} qubits; capped at {MAX_QASM_QUBITS}"
        assert parse_qasm(f"qreg {reg}[{'0' * 5000}{MAX_QASM_QUBITS}];\nqreg {'anc' if reg == 'q' else 'q'}[1];")

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_numbers_too_long_for_int_are_named_without_converting(self, limit):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            nines = "9" * 5000
            for text, named in (
                (f"qreg q[3];\nx q[{nines}];", f"qubit reference q[{nines}] outside qreg q[3]"),
                (f"qreg q[3];\nx q[1000];", "qubit reference q[1000] outside qreg q[3]"),
                (f"qreg q[3];\nx anc[{nines}];", f"qubit reference anc[{nines}] to an undeclared register"),
                (f"qreg q[{nines}];", f"register q has {nines} qubits; capped at {MAX_QASM_QUBITS}"),
            ):
                with pytest.raises(ValueError) as info:
                    parse_qasm(text)
                assert str(info.value) == named
                assert outcome_of(ref_parse_qasm, text) == (type(info.value), named)
            assert parse_qasm(f"qreg q[3];\nx q[{'0' * 5000}2];").gates == (Gate("x", (2,)),)
        finally:
            sys.set_int_max_str_digits(old)

    def test_a_register_above_the_cap_is_refused_in_under_10_ms(self):
        text = f"qreg q[3];\nqreg anc[{'9' * 5000}];\nx q[0];\n"
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(SizeLimitError):
                parse_qasm(text)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01


def test_the_gate_table_names_every_kind_and_nothing_else():
    assert {kind: arity for kind, (_, arity) in circuitgen.GATES.items()} == ARITY
    with pytest.raises(ValueError, match="unknown gate kind 'mcx'"):
        Gate("mcx", (0, 1))
    with pytest.raises(ValueError, match="ccx takes 3 qubits"):
        Gate("ccx", (0, 1))


def test_circuit_rejects_out_of_range_qubits_on_every_gate():
    g = Gate("x", (0,))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, 0, (g, g, Gate("cx", (0, 1)), g))


# ---------------------------------------------------------------------------
# Passes once per distinct gate

_QASM_OK = (
    "OPENQASM 2.0;", 'include "qelib1.inc";', "// note", "", "   ",
    "x q[0];", "x q[1];", " x q[0]; ", "x q[0];  ", "h anc[0];", "t q[2];", "tdg q[1];",
    "cx q[0],q[1];", "cx q[1], q[0];", "ccx q[0],q[1],anc[0];", "ccx q[1],q[0],anc[1];",
    # Near misses of the plain emitted form, which the reader of each line
    # must hand to the full parser or read exactly as it does.
    "x  q[0];", "h\tq[2];", "t q[0] ;", "cx q[0],  q[2];", "ccx q[2], q[0],anc[1];",
    "x q[00];", "cx q[01],anc[001];", "x q[\u0661];", "cx anc[\u0661],q[2];",
)
_QASM_BAD = (
    "qreg q[2];", "qreg q[3];", "qreg anc[1];", "qreg anc[2];", "  qreg q[3];", "qreg  anc[2];",
    "x q[2];", "x anc[1];", "x q[9];", "cx q[0],q[0];", "y q[0];", "x q[a];", "mcx q[0],q[1];",
    "x q[0]", "qreg r[1];", "x r[0];",
    # Near misses: past a register, repeated qubits, unknown or upper-case
    # names, the wrong arity, non-ASCII digits out of range, stray text.
    "x anc[7];", "cx q[0],anc[9];", "x q[99999999999999999999];", "x q[\u0669];",
    "ccx q[0],q[1],q[0];", "cx anc[0],anc[0];", "cx anc[01],anc[1];",
    "X q[0];", "CX q[0],q[1];", "cz q[0],q[1];", "swap q[0],q[1];",
    "cx q[0];", "x q[0],q[1];", "ccx q[0],q[1];", "h q[0],q[1],q[2];",
    "x q[0];;", "x q[0],;", "x q [0];", "x q[0]; // c", "x q[-1];", "x q[+1];",
    # Indices too long for ``int``: the first fault of the line is named
    # before any index is converted.
    "x q[" + "9" * 5000 + "];", "cx q[9],q[" + "9" * 5000 + "];",
    # Register sizes too long for ``int``, and one past the cap.
    "qreg q[" + "9" * 5000 + "];", f"qreg anc[{MAX_QASM_QUBITS + 1}];",
)
_QASM_HEADS = (
    (), ("qreg q[3];",), ("qreg q[3];", "qreg anc[2];"), ("qreg anc[2];",),
    ('OPENQASM 2.0;', 'include "qelib1.inc";', "qreg q[2];", "qreg anc[1];"),
)


@st.composite
def qasm_texts(draw):
    """Gate lines, repeated and whitespace-padded, after some declarations,
    with up to three lines planted that can fail: declarations (repeated or
    late), out-of-range and malformed lines.  In the declarations
    ``q[2]``/``anc[1]``, lines of the first pool fail too."""
    lines = list(draw(st.sampled_from(_QASM_HEADS)))
    lines += draw(st.lists(st.sampled_from(_QASM_OK), max_size=30))
    for bad in draw(st.lists(st.sampled_from((*_QASM_BAD, *lines[:2])), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("", "\n")))


def sharing(c: Circuit) -> list[int]:
    """For each position, the first position holding the same instance."""
    first: dict[int, int] = {}
    return [first.setdefault(id(g), i) for i, g in enumerate(c.gates)]


def assert_table(c: Circuit) -> None:
    """Each position's index names a table entry equal to its gate, and
    every entry is named."""
    assert len(c._index) == len(c.gates)
    assert all(c._table[i] == g for i, g in zip(c._index, c.gates))
    assert sorted(set(c._index)) == list(range(len(c._table)))


def assert_as_public(c: Circuit) -> None:
    """``c``, built by a builder, equals the public construction of its
    fields, and its table holds each distinct instance of its positions
    once, with each position's index naming its instance."""
    public = Circuit(c.data_qubits, c.ancilla_qubits, c.gates)
    assert c == public and hash(c) == hash(public)
    assert_table(c)
    assert all(c._table[i] is g for i, g in zip(c._index, c.gates))


class TestParseQasmAgainstReference:
    def test_each_pool_line_reads_as_the_reference_reads_it(self):
        lines = [ln for ln in _QASM_OK + _QASM_BAD if ln.strip() and "qreg" not in ln]
        for head in ("qreg q[3];\nqreg anc[2];", "qreg q[2];\nqreg anc[1];", "qreg q[3];", ""):
            for line in lines:
                late = "" if "anc" in head else f"\nqreg anc[2];\n{line}"  # a register declared after gates
                text = f"{head}\n{line}\n{line}{late}"
                got = outcome_of(parse_qasm, text)
                assert got == outcome_of(ref_parse_qasm, text), text
                if isinstance(got, Circuit):
                    assert sharing(got) == sharing(ref_parse_qasm(text))
                    assert_as_public(got)

    @settings(max_examples=500, deadline=None)
    @given(qasm_texts())
    def test_same_circuit_or_same_error(self, text):
        got, want = outcome_of(parse_qasm, text), outcome_of(ref_parse_qasm, text)
        assert got == want
        if isinstance(got, Circuit):
            assert sharing(got) == sharing(want)
            assert_as_public(got)

    @pytest.mark.parametrize(
        "text",
        [
            "qreg q[2];\nx q[0];\nqreg q[2];\ny q[0];",
            "qreg q[2];\ny q[0];\nqreg q[2];",
            "qreg q[2];\nqreg anc[1];\nqreg anc[1];\nqreg q[2];",
            "qreg q[2];\nqreg anc[1];\nx q[0];\nqreg q[2];\nqreg anc[1];",
            "qreg anc[1];\nqreg anc[1];",
            "qreg anc[1];\nx q[0];\nqreg anc[1];",
            " qreg q[2];\nqreg q[2];",
            "qreg q[2];\n qreg q[2];\nqreg q[2];",
            "x q[0];\nqreg q[1];\nx q[0];",
            "qreg q[1];\nx q[0];\nx anc[0];\nqreg anc[1];\nx anc[0];",
            "qreg q[1];\nx q[0];\n x q[1];",
            "qreg q[2];\nx q[0];\n  x q[0];  \nx q[0];\n\tx q[0];",
            "",
            "// only a comment",
            "OPENQASM 2.0;\n\nqreg q[1];\nx q[0];\n\n// c\nx q[0];\n",
            "\n\nqreg q[1];\nx q[0];\n\nqreg q[1];\nx q[0];",
        ],
    )
    def test_declarations_repeats_and_order_of_errors(self, text):
        got = outcome_of(parse_qasm, text)
        assert got == outcome_of(ref_parse_qasm, text)
        if isinstance(got, Circuit):
            assert sharing(got) == sharing(ref_parse_qasm(text))


def test_labels_in_bulk_and_one_at_a_time_print_as_label_does():
    for width in range(13):
        for count in (0, 1, vecmonad._BULK_MIN - 1, vecmonad._BULK_MIN, 300):
            indices = np.random.default_rng([width, count]).integers(0, 1 << width, count)
            assert circuitgen._labels(indices, width) == [circuitgen._label(i, width) for i in indices.tolist()]


class TestPassesPerDistinctGate:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(words(), circuits()))
    def test_peephole_results_equal_their_public_construction(self, c):
        assert_as_public(peephole(c))

    @settings(max_examples=60, deadline=None)
    @given(power_of_two_permutations(max_width=6))
    def test_synthesized_circuits_equal_their_public_construction(self, perm):
        assert_as_public(synth_permutation(perm_matrix(perm)))

    def test_a_cancelled_hadamard_leaves_a_classical_circuit(self):
        h, x = Gate("h", (0,)), Gate("x", (0,))
        c = peephole(Circuit(1, 0, (x, h, Gate("h", (0,)), x, x)))
        assert c.gates == (x,)
        assert c.is_classical()
        assert c._table == (x,)

    def test_copies_build_their_own_table(self):
        c = synth_permutation(perm_matrix(np.random.default_rng(3).permutation(16).tolist()))
        for d in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert d == c
            assert_as_public(d)
            assert export_qasm(d) == export_qasm(c)


# ---------------------------------------------------------------------------
# The index form: one word of gates built three ways, against the
# references, and every kind of circuit through copy and pickle.


@st.composite
def gate_words(draw):
    """Words over every kind of ``GATES`` on 0-7 data qubits and 0-3
    ancillas, drawn from a small pool so that gates repeat.  Each position
    holds the pool's instance or a fresh equal copy, and nested pairs of
    pool gates are planted for ``peephole`` to cancel.  Gates land on any
    qubit, so an ancilla may be left dirty."""
    data, ancillas = draw(st.integers(0, 7)), draw(st.integers(0, 3))
    total = data + ancillas
    kinds = [kind for kind, arity in ARITY.items() if arity <= total]
    if not kinds:
        return Circuit(data, ancillas, ())
    pool = [Gate(kind, tuple(draw(st.permutations(range(total)))[: ARITY[kind]]))
            for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))]

    def placed(g: Gate) -> Gate:
        return Gate(g.name, g.qubits) if draw(st.booleans()) else g

    word = [placed(g) for g in draw(st.lists(st.sampled_from(pool), max_size=16))]
    for _ in range(draw(st.integers(0, 2))):
        inner = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        at = draw(st.integers(0, len(word)))
        word[at:at] = [placed(g) for g in inner + inner[::-1]]
    return Circuit(data, ancillas, tuple(word))


def every_input(c: Circuit) -> list[str]:
    return [format(x | 1 << c.data_qubits, "b")[1:] for x in range(1 << c.data_qubits)]


def assert_same_circuit(got: Circuit, want: Circuit) -> None:
    """``got`` has ``want``'s gates, equality, hash, QASM, metrics and
    simulation on every input, the last three against the references."""
    assert got.gates == want.gates
    assert got == want and hash(got) == hash(want)
    assert export_qasm(got) == ref_export_qasm(want)
    assert metrics(got) == ref_metrics(want)
    for bits in every_input(want):
        assert outcome_of(simulate, got, bits) == outcome_of(ref_simulate, want, bits)


class TestIndexForm:
    @settings(max_examples=200, deadline=None)
    @given(gate_words())
    def test_three_constructions_agree_with_the_references(self, c):
        parsed = parse_qasm(export_qasm(c))
        assert_table(c)
        assert_same_circuit(c, c)
        assert_same_circuit(parsed, c)
        assert sharing(parsed) == sharing(ref_parse_qasm(export_qasm(c)))
        assert_same_circuit(peephole(c), ref_stack_peephole(c))
        equal: dict = {}  # equal gates of the result are one instance
        assert sharing(peephole(c)) == [equal.setdefault(g, i) for i, g in enumerate(ref_stack_peephole(c).gates)]
        # Lines spaced apart parse to two table entries of one gate, which
        # peephole must treat as equal.
        lines = export_qasm(c).splitlines()
        spaced = parse_qasm("\n".join(ln.replace(",", ", ") if i % 2 else ln for i, ln in enumerate(lines)))
        assert_same_circuit(peephole(spaced), ref_stack_peephole(c))
        for d in (parsed, peephole(c), peephole(spaced)):
            assert_as_public(d)

    def test_equal_gates_parsed_from_lines_spaced_apart_cancel(self):
        c = parse_qasm("qreg q[2];\ncx q[0],q[1];\ncx q[0], q[1];\nx q[0];\n")
        assert len(c._table) == 3  # one entry per stripped line
        slim = peephole(c)
        assert slim == Circuit(2, 0, (Gate("x", (0,)),))
        assert_as_public(slim)

    @pytest.mark.parametrize("kind", ["public", "synthesized", "parsed", "peepholed"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_copy_deepcopy_and_pickle_keep_the_circuit(self, kind, warm):
        x0, cx, h = Gate("x", (0,)), Gate("cx", (0, 3)), Gate("h", (1,))
        public = Circuit(2, 2, (x0, cx, Gate("x", (0,)), h, h, cx, Gate("t", (3,)), x0, cx))
        synthesized = synth_permutation(perm_matrix(np.random.default_rng(3).permutation(16).tolist()))
        c = {
            "public": lambda: public,
            "synthesized": lambda: synthesized,
            "parsed": lambda: parse_qasm(export_qasm(synthesized)),
            "peepholed": lambda: peephole(public),
        }[kind]()
        if warm:  # fill the cached per-entry results first
            export_qasm(c), metrics(c), c.gates, [outcome_of(simulate, c, b) for b in every_input(c)]
        for d in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert sharing(d) == sharing(c)
            assert_table(d)
            if kind != "public":  # whose gates may hold equal instances beside the table's
                assert_as_public(d)
            assert_same_circuit(d, Circuit(c.data_qubits, c.ancilla_qubits, c.gates))


def test_the_large_circuit_is_pinned():
    """The seed-8 random 8-bit permutation: gate count, depth, ancillas and
    the exact QASM text of the circuit the synthesis emitted before it
    worked once per distinct gate; its counts per kind, cx cost and
    T-count; a QASM round trip; 16 seeded inputs."""
    perm = np.random.default_rng(8).permutation(256).tolist()
    c = synth_permutation(perm_matrix(perm))
    m = metrics(c)
    assert m == Metrics(size=38122, cx=0, depth=22310)
    assert c.ancilla_qubits == m.ancillas == 5
    assert m.kinds == {"x": 18630, "cx": 0, "ccx": 19492, "h": 0, "t": 0, "tdg": 0}
    assert (m.cx_cost, m.t_count) == (116952, 136444)
    text = export_qasm(c)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2f0a82a92606f94acdfdaeb44c6a8e42342f25530bf31e15ca9e27ca2e930c10"
    )
    assert parse_qasm(text) == c
    for x in np.random.default_rng(18).choice(256, 16, replace=False).tolist():
        assert simulate(c, format(x, "08b")) == format(perm[x], "08b")
