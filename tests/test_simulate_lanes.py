"""The bit-sliced path of ``simulate_state`` against the dense path it
replaced for classical circuits."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quantakit import checks
from quantakit.circuitgen import AncillaError, Circuit, Gate, _label, decompose_mcx, simulate_state
from quantakit.vecmonad import DEFAULT_TOL, PRUNE_EPS, AmpVec
from reference.circuitgen import ref_dense_simulate_state

# ---------------------------------------------------------------------------
# Strategies

ARITY = {"x": 1, "cx": 2, "ccx": 3}


@st.composite
def classical_circuits(draw, max_data: int = 7, max_ancillas: int = 3):
    """x/cx/ccx circuits on 0-7 data qubits and 0-3 ancillas.  Gates land on
    the data qubits only, or in half the circuits on any qubit, which can
    leave an ancilla dirty; MCX gates are lowered onto the ancillas."""
    data, ancillas = draw(st.integers(0, max_data)), draw(st.integers(0, max_ancillas))
    total = data + ancillas
    pool = total if draw(st.booleans()) else data
    gates: list[Gate] = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["x", "cx", "ccx", "mcx"]))
        if kind == "mcx":
            if data < 2:
                continue
            qs = draw(st.permutations(range(data)))[: draw(st.integers(2, data))]
            if len(qs) - 3 <= ancillas:
                pols = tuple(draw(st.integers(0, 1)) for _ in qs[:-1])
                gates.extend(decompose_mcx(tuple(zip(qs[:-1], pols)), qs[-1], tuple(range(data, total))))
        elif ARITY[kind] <= pool:
            gates.append(Gate(kind, tuple(draw(st.permutations(range(pool)))[: ARITY[kind]])))
    return Circuit(data, ancillas, tuple(gates))


# Magnitudes on both sides of the output tolerance, and well clear of it.
_PARTS = st.sampled_from([
    0.0, -0.0, PRUNE_EPS, DEFAULT_TOL, -DEFAULT_TOL, DEFAULT_TOL * (1 + 2**-52), DEFAULT_TOL * (1 - 2**-53),
    0.7 * DEFAULT_TOL, 2 * DEFAULT_TOL, 0.5, -0.25, 1 / 3,
]) | st.floats(-2, 2)
# Amplitudes with both parts nonzero and a magnitude within a few ulps of
# the tolerance, where Python's abs() and NumPy's may round apart.
_AT_TOL = st.floats(0.01, 1.56).map(lambda t: complex(DEFAULT_TOL * math.cos(t), DEFAULT_TOL * math.sin(t)))
_AMPS = st.builds(complex, _PARTS, _PARTS) | _AT_TOL


@st.composite
def kets(draw, width: int, full: bool | None = None):
    """Kets over ``width`` bits: empty, full or partial support."""
    labels = [_label(i, width) for i in range(1 << width)]
    if full is None:
        full = draw(st.booleans())
    chosen = labels if full else draw(st.lists(st.sampled_from(labels), unique=True))
    return AmpVec([(x, draw(_AMPS)) for x in draw(st.permutations(chosen))])


def outcome(fn, *args):
    """Items in order with the exact bits of both parts, or the error text."""
    try:
        v = fn(*args)
    except (AncillaError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [(x, a.real.hex(), a.imag.hex()) for x, a in v.items()]


# ---------------------------------------------------------------------------


class TestLanesAgainstTheDensePath:
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_same_items_order_bits_and_errors(self, data):
        c = data.draw(classical_circuits())
        v = data.draw(kets(c.data_qubits))
        assert c.is_classical()
        assert outcome(simulate_state, c, v) == outcome(ref_dense_simulate_state, c, v)

    def test_the_empty_ket(self):
        c = Circuit(2, 1, (Gate("x", (2,)),))
        assert outcome(simulate_state, c, AmpVec()) == outcome(ref_dense_simulate_state, c, AmpVec()) == []

    def test_a_dirty_ancilla_names_the_first_state_in_index_order(self):
        c = Circuit(2, 2, (Gate("cx", (0, 3)), Gate("cx", (1, 2))))
        v = AmpVec([("11", 0.5), ("01", 0.5), ("10", 0.5), ("00", 0.5)])
        got = outcome(simulate_state, c, v)
        assert got == outcome(ref_dense_simulate_state, c, v)
        assert got == "AncillaError: ancillas left dirty: amplitude on data 01, ancillas 10"

    def test_a_dirty_state_at_the_tolerance_is_dropped(self):
        c = Circuit(1, 1, (Gate("cx", (0, 1)),))
        v = AmpVec([("1", DEFAULT_TOL), ("0", 1.0)])
        assert outcome(simulate_state, c, v) == outcome(ref_dense_simulate_state, c, v) == [
            ("0", (1.0).hex(), (0.0).hex())]

    def test_a_magnitude_at_the_tolerance_is_cut_as_the_dense_path_cuts_it(self):
        # On x86-64 with NumPy 2.4, abs() puts the first two of these at or
        # below DEFAULT_TOL and np.abs above it, and the last the other way.
        c = Circuit(2, 1, (Gate("cx", (0, 2)), Gate("x", (1,)), Gate("cx", (0, 2))))
        at_tol = [complex(float.fromhex(re), float.fromhex(im)) for re, im in (
            ("0x1.8eb053289f3c8p-32", "0x1.002ba4f601952p-30"),
            ("0x1.8783748c9a6a5p-31", "0x1.81f04aeeb5c73p-31"),
            ("0x1.fa378777a033ep-31", "0x1.acd6fd5038a0ep-32"),
        )]
        v = AmpVec(zip(["00", "01", "10"], at_tol))
        assert outcome(simulate_state, c, v) == outcome(ref_dense_simulate_state, c, v)
        dirty = Circuit(2, 1, (Gate("cx", (0, 2)),))
        v = AmpVec(zip(["00", "10", "11"], [1.0, *at_tol[1:]]))
        assert outcome(simulate_state, dirty, v) == outcome(ref_dense_simulate_state, dirty, v)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_full_support_matches_the_dense_matrix(self, data):
        c = data.draw(classical_circuits(max_data=4, max_ancillas=2))
        v = data.draw(kets(c.data_qubits, full=True))
        m = checks._dense_circuit_matrix(c)
        anc = c.ancilla_qubits
        psi = np.zeros(1 << c.total_qubits, dtype=complex)
        for x, a in v.items():
            psi[int(x or "0", 2) << anc] = a
        want = m @ psi
        big = np.abs(want) > DEFAULT_TOL  # measured on the array, as the dense path measures it
        try:
            got = simulate_state(c, v)
        except AncillaError:
            assert any(big[i] for i in range(len(want)) if i % (1 << anc))
            return
        assert [x for x, _ in got.items()] == [
            _label(i >> anc, c.data_qubits) for i in range(len(want)) if big[i]]
        assert all(a == want[int(x or "0", 2) << anc] for x, a in got.items())
