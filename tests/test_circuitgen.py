from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as rt
from quantakit import gates
from quantakit.circuitgen import (
    MAX_STATE_QUBITS,
    AncillaError,
    Circuit,
    Encoding,
    Gate,
    decompose_mcx,
    export_qasm,
    parse_qasm,
    simulate,
    simulate_state,
    synth_permutation,
)
from quantakit.cli import main
from quantakit.relalg import SizeLimitError
from quantakit.vecmonad import PRUNE_EPS, AmpVec, vec_equal

GOLDENS = Path(__file__).parent / "goldens"

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)


# ---------------------------------------------------------------------------
# Reference: the label-dict simulator that circuitgen used before its
# integer-index rewrite, kept verbatim apart from the function names.

def _classical_step(bits: list[int], g: Gate) -> None:
    if g.name == "x":
        bits[g.qubits[0]] ^= 1
    elif g.name == "cx":
        if bits[g.qubits[0]]:
            bits[g.qubits[1]] ^= 1
    elif g.name == "ccx":
        if bits[g.qubits[0]] and bits[g.qubits[1]]:
            bits[g.qubits[2]] ^= 1
    elif g.name == "mcx":
        if all(bits[q] == pol for q, pol in zip(g.qubits[:-1], g.ctrl_state)):
            bits[g.qubits[-1]] ^= 1
    else:
        raise ValueError(f"not a classical gate: {g.name}")


def ref_simulate(c: Circuit, input_bits: str, tol: float = 1e-9) -> str:
    """Run a circuit on one computational-basis input.

    Classical circuits follow the permutation path; otherwise the
    statevector is computed and must collapse to a single basis state.
    Ancillas start at zero and must return to zero.
    """
    if len(input_bits) != c.data_qubits or set(input_bits) - {"0", "1"}:
        raise ValueError(f"input must be {c.data_qubits} bits")
    if c.is_classical():
        bits = [int(b) for b in input_bits] + [0] * c.ancilla_qubits
        for g in c.gates:
            _classical_step(bits, g)
        data = bits[: c.data_qubits]
        if any(bits[c.data_qubits:]):
            raise AncillaError(f"ancillas left dirty on input {input_bits}")
        return "".join(str(b) for b in data)
    out = ref_simulate_state(c, AmpVec({input_bits: 1.0}), tol=tol)
    states = [(lbl, a) for lbl, a in out.items() if abs(a) > tol]
    if len(states) != 1 or abs(abs(states[0][1]) - 1.0) > tol:
        raise ValueError("output is not a computational basis state")
    return states[0][0]


def ref_simulate_state(c: Circuit, v: AmpVec, tol: float = 1e-9) -> AmpVec:
    """Statevector action on a ket over data-qubit bit-strings."""
    state: dict[str, complex] = {}
    for label, a in v.items():
        if len(label) != c.data_qubits or set(label) - {"0", "1"}:
            raise ValueError(f"state label {label!r} must be {c.data_qubits} bits")
        state[label + "0" * c.ancilla_qubits] = a

    def flipped(bits: str, q: int) -> str:
        return bits[:q] + ("1" if bits[q] == "0" else "0") + bits[q + 1 :]

    for g in c.gates:
        nxt: dict[str, complex] = {}
        if g.name in ("x", "cx", "ccx", "mcx"):
            for bits, a in state.items():
                vals = [int(b) for b in bits]
                fire = (
                    g.name == "x"
                    or (g.name == "cx" and vals[g.qubits[0]])
                    or (g.name == "ccx" and vals[g.qubits[0]] and vals[g.qubits[1]])
                    or (
                        g.name == "mcx"
                        and all(vals[q] == p for q, p in zip(g.qubits[:-1], g.ctrl_state))
                    )
                )
                key = flipped(bits, g.qubits[-1]) if fire else bits
                nxt[key] = nxt.get(key, 0j) + a
        elif g.name == "h":
            q = g.qubits[0]
            for bits, a in state.items():
                sign = -1.0 if bits[q] == "1" else 1.0
                for key, w in ((bits[:q] + "0" + bits[q + 1 :], _SQRT2_INV),
                               (bits[:q] + "1" + bits[q + 1 :], sign * _SQRT2_INV)):
                    nxt[key] = nxt.get(key, 0j) + a * w
        elif g.name in ("t", "tdg"):
            q = g.qubits[0]
            phase = _T_PHASE if g.name == "t" else np.conj(_T_PHASE)
            for bits, a in state.items():
                nxt[bits] = nxt.get(bits, 0j) + (a * phase if bits[q] == "1" else a)
        else:
            raise ValueError(f"unknown gate kind {g.name!r}")
        state = {k: a for k, a in nxt.items() if abs(a) >= PRUNE_EPS}

    out: dict[str, complex] = {}
    for bits, a in state.items():
        if abs(a) <= tol:
            continue
        if any(b == "1" for b in bits[c.data_qubits :]):
            raise AncillaError("synthesis bug: amplitude on a dirty ancilla")
        data = bits[: c.data_qubits]
        out[data] = out.get(data, 0j) + a
    return AmpVec(out)


# ---------------------------------------------------------------------------
# Strategies

ARITY = {"x": 1, "h": 1, "t": 1, "tdg": 1, "cx": 2, "ccx": 3}
CLASSICAL = ("x", "cx", "ccx", "mcx", "lowered-mcx")
QUANTUM = CLASSICAL + ("h", "t", "tdg")


@st.composite
def circuits(draw, kinds=QUANTUM, max_gates=12):
    """Circuits of at most 6 qubits.  MCX gates have mixed polarities and
    are kept whole or lowered onto the ancillas; the other gates act on
    the data qubits only, or in half the circuits on any qubit, which can
    leave an ancilla dirty."""
    total = draw(st.integers(1, 6))
    data = draw(st.integers(1, total))
    ancillas = tuple(range(data, total))
    pool = total if draw(st.booleans()) else data
    out: list[Gate] = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("mcx", "lowered-mcx"):
            width = pool if kind == "mcx" else data
            if width < 2:
                continue
            qs = draw(st.permutations(range(width)))[: draw(st.integers(2, width))]
            pols = tuple(draw(st.integers(0, 1)) for _ in qs[:-1])
            if kind == "mcx":
                out.append(Gate("mcx", tuple(qs), pols))
            elif len(qs) - 3 <= len(ancillas):
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


def outcome(fn, *args):
    """The result of a simulator call, or the type of the error it raised."""
    try:
        return fn(*args)
    except (AncillaError, ValueError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# Simulation against the reference


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_simulate_state_matches_reference(self, data):
        c = data.draw(circuits())
        v = data.draw(kets(c.data_qubits))
        want = outcome(ref_simulate_state, c, v)
        got = outcome(simulate_state, c, v)
        if isinstance(want, AmpVec):
            assert isinstance(got, AmpVec)
            assert vec_equal(got, want, tol=1e-10)
        else:
            assert got is want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_simulate_matches_reference_exactly(self, data):
        c = data.draw(circuits(kinds=CLASSICAL, max_gates=20))
        bits = data.draw(st.text("01", min_size=c.data_qubits, max_size=c.data_qubits))
        assert outcome(simulate, c, bits) == outcome(ref_simulate, c, bits)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_simulate_through_the_statevector_matches_reference(self, data):
        c = data.draw(circuits())
        bits = data.draw(st.text("01", min_size=c.data_qubits, max_size=c.data_qubits))
        assert outcome(simulate, c, bits) == outcome(ref_simulate, c, bits)

    def test_simulate_checks_its_input(self):
        c = Circuit(2, 0, (Gate("cx", (0, 1)),))
        for bad in ("1", "012", "1a"):
            with pytest.raises(ValueError, match="2 bits"):
                simulate(c, bad)
        with pytest.raises(ValueError, match="must be 2 bits"):
            simulate_state(c, AmpVec({"102": 1.0}))


class TestAncillas:
    def test_dirty_ancilla_on_the_classical_path(self):
        c = Circuit(2, 1, (Gate("ccx", (0, 1, 2)),))
        assert simulate(c, "10") == "10"
        with pytest.raises(AncillaError, match="dirty on input 11"):
            simulate(c, "11")

    def test_dirty_ancilla_on_the_statevector_path(self):
        c = Circuit(2, 1, (Gate("ccx", (0, 1, 2)),))
        with pytest.raises(AncillaError):
            simulate_state(c, AmpVec({"00": 0.6, "11": 0.8}))
        with pytest.raises(AncillaError):
            simulate(Circuit(1, 1, (Gate("h", (1,)),)), "0")

    def test_amplitudes_at_tolerance_are_dropped_before_the_ancilla_check(self):
        c = Circuit(1, 1, (Gate("cx", (0, 1)),))
        out = simulate_state(c, AmpVec({"0": 1.0, "1": 1e-10}))
        assert dict(out.items()) == {"0": 1.0}

    def test_lowered_mcx_returns_ancillas_clean(self):
        controls = ((0, 1), (1, 0), (2, 1), (3, 1))
        c = Circuit(5, 2, decompose_mcx(controls, 4, (5, 6)))
        for i in range(32):
            bits = format(i, "05b")
            fire = bits[:4] == "1011"
            want = bits[:4] + (str(1 - int(bits[4])) if fire else bits[4])
            assert simulate(c, bits) == want


class TestQubitCap:
    def test_statevector_over_the_cap_is_refused(self):
        c = Circuit(MAX_STATE_QUBITS - 1, 2, ())
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


# ---------------------------------------------------------------------------
# Pinned references


class TestPinnedReferences:
    def test_single_cx_golden(self, capsys):
        cnot = gates.default_library().matrix("cnot")
        circ = synth_permutation(cnot, Encoding(cnot.src))
        golden = (GOLDENS / "single_cx.qasm").read_text()
        assert export_qasm(circ) == golden
        assert parse_qasm(golden).gates == circ.gates
        for bits, want in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
            assert main(["simulate", str(GOLDENS / "single_cx.qasm"), bits]) == 0
            assert capsys.readouterr().out == want + "\n"

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

    def test_repeated_lines_share_one_gate(self):
        text = export_qasm(Circuit(2, 0, (Gate("cx", (0, 1)), Gate("h", (0,))) * 3))
        c = parse_qasm(text.replace("cx q[0],q[1];", "  cx q[0],q[1];  ", 1))
        assert c.gates[0] is c.gates[2] is c.gates[4]
        assert c.gates[1] is c.gates[3] is c.gates[5]

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


def test_circuit_rejects_out_of_range_qubits_on_every_gate():
    g = Gate("x", (0,))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, 0, (g, g, Gate("cx", (0, 1)), g))


def test_ops_are_bitmasks_with_qubit_zero_leftmost():
    c = Circuit(3, 1, (
        Gate("x", (0,)),
        Gate("ccx", (0, 2, 3)),
        Gate("mcx", (3, 1, 0), (0, 1)),
        Gate("h", (2,)),
        Gate("tdg", (1,)),
    ))
    assert c.ops == (
        ("x", 0, 0, 0b1000),
        ("x", 0b1010, 0b1010, 0b0001),
        ("x", 0b0101, 0b0100, 0b1000),
        ("h", 0, 0, 0b0010),
        ("tdg", 0, 0, 0b0100),
    )
