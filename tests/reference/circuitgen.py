"""References for ``quantakit.circuitgen``: earlier implementations of
what the module does now, each kept verbatim apart from its name and the
changes its comment names, for tests to compare the current code with."""
import re
import unicodedata
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from quantakit.circuitgen import (
    MAX_QASM_QUBITS, MAX_STATE_QUBITS, GATES, AncillaError, Circuit, Encoding, Gate, Metrics, NonPermutationError,
    decompose_mcx,
)
from quantakit.relalg import SizeLimitError
from quantakit.vecmonad import DEFAULT_TOL, PRUNE_EPS, AmpVec, CMatrix

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)
_PHASE = {"t": _T_PHASE, "tdg": np.conj(_T_PHASE)}


# ---------------------------------------------------------------------------
# Reference: the gate decoder and the bit-string printer, verbatim copies of
# ``circuitgen``'s ``Op`` and ``_decode``, which its ``Circuit.ops`` read
# until it went, and of its ``_label``, so that the references below
# neither decode nor print through the code they check.

Op = tuple[str, int, int]
"""A decoded gate: (action, control mask, target mask), the action being
that of ``GATES``; the target is acted on where every control bit is set."""


def _decode(g: Gate, n: int) -> Op:
    *controls, target = g.qubits
    cmask = sum(1 << (n - 1 - q) for q in controls)  # the qubits are distinct
    return GATES[g.name][0], cmask, 1 << (n - 1 - target)


def _label(i: int, width: int) -> str:
    # The guard bit keeps leading zeros and gives "" for width 0.
    return format(i | (1 << width), "b")[1:]


# ---------------------------------------------------------------------------
# Reference: the one-pass stack that cancelled synthesized circuits before
# circuitgen shared one Gate per distinct gate, kept verbatim apart from the
# function name.  ``ref_synth_permutation`` cancels through it, and the
# index-form test compares ``peephole`` with it: cancelling adjacent pairs
# reaches one reduced word in whatever order it is done, so the stack's
# word is that of the fixed-point rescan ``peephole`` once was.

def ref_stack_peephole(c: Circuit) -> Circuit:
    """Cancel adjacent identical self-inverse gates, in one pass on a stack.

    A gate cancels the top of the stack when the two are equal, so pairs
    that meet only after an inner pair cancels go too: the result is the
    fixed point of repeated adjacent cancellation.
    """
    out: list[Gate] = []
    for g in c.gates:
        if out and out[-1] == g and g.name in ("x", "cx", "ccx", "h"):
            out.pop()
        else:
            out.append(g)
    return Circuit(c.data_qubits, c.ancilla_qubits, tuple(out))


# ---------------------------------------------------------------------------
# Reference: permutation synthesis, its depth sweep and its QASM export as
# they stood before circuitgen shared one Gate per distinct gate: the
# per-position lowering, kept verbatim apart from the function names and
# from the export's branch for an mcx gate, which the gate set no longer
# has.  Only the test against ``ref_synth_permutation`` kills the mutant
# that gives ``synth_permutation`` its ancillas when there is no swap to
# lower (``if swaps else 0`` dropped).  Only the tests against
# ``ref_metrics`` kill the mutant of ``metrics`` in which a one-qubit gate
# on an ancilla adds no depth, and only those against ``ref_export_qasm``
# the mutant of ``export_qasm`` that drops the data register of a circuit
# with no data qubits.

def ref_permutation_of(m: CMatrix, tol: float = 1e-9) -> list[int]:
    rows, cols = m.entries.shape
    if rows != cols:
        raise NonPermutationError("matrix is not square")
    perm = []
    for j in range(cols):
        col = m.entries[:, j]
        ones = np.nonzero(np.abs(col - 1.0) <= tol)[0]
        if len(ones) != 1 or np.max(np.abs(col), initial=0.0) > 1.0 + tol:
            raise NonPermutationError(
                "matrix is not a 0/1 permutation; general unitary synthesis is out of scope"
            )
        others = ~(np.abs(col) <= tol)  # a NaN counts as nonzero
        if int(np.count_nonzero(others)) != 1:
            raise NonPermutationError(
                "matrix is not a 0/1 permutation; general unitary synthesis is out of scope"
            )
        perm.append(int(ones[0]))
    if sorted(perm) != list(range(rows)):
        raise NonPermutationError("columns do not form a permutation")
    return perm


def ref_transpositions(perm: list[int]) -> list[tuple[int, int]]:
    seen = [False] * len(perm)
    out: list[tuple[int, int]] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        for other in cycle[1:]:
            out.append((cycle[0], other))
    return out


class RefMcx(NamedTuple):
    """An MCX as the reference route named it: qubits list controls first,
    target last, with one polarity bit per control (1 fires on a set
    control).  The circuit IR has no such gate, so it lives here."""

    qubits: tuple[int, ...]
    ctrl_state: tuple[int, ...]


def ref_adjacent_swap_mcx(u: int, v: int, width: int) -> RefMcx:
    """MCX swapping two states at Hamming distance one (bit 0 = leftmost)."""
    diff = u ^ v
    target = width - diff.bit_length()
    controls = []
    state = []
    for q in range(width):
        if q == target:
            continue
        controls.append(q)
        state.append((u >> (width - 1 - q)) & 1)
    return RefMcx(tuple(controls) + (target,), tuple(state))


def ref_gray_chain(u: int, v: int, width: int) -> list[Gate]:
    """Transposition (u v) as a Gray-code chain of adjacent-state swaps."""
    diffs = [q for q in range(width) if ((u ^ v) >> (width - 1 - q)) & 1]
    path = [u]
    cur = u
    for q in diffs:
        cur ^= 1 << (width - 1 - q)
        path.append(cur)
    ups = [ref_adjacent_swap_mcx(path[i], path[i + 1], width) for i in range(len(path) - 1)]
    return ups + ups[:-1][::-1]


def ref_synth_permutation(m: CMatrix, enc: Encoding, tol: float = 1e-9) -> Circuit:
    """Circuit over data qubits (plus ancillas) realizing a permutation matrix,
    to within ``tol``, on the encoded computational basis."""
    if m.src != enc.basis or m.tgt != enc.basis:
        raise ValueError("matrix bases must match the encoding basis")
    perm = ref_permutation_of(m, tol)
    width = enc.width

    mcx_gates: list[Gate] = []
    for u, v in ref_transpositions(perm):
        mcx_gates.extend(ref_gray_chain(u, v, width))

    need = max((max(0, len(g.qubits) - 3) for g in mcx_gates), default=0)
    ancillas = tuple(range(width, width + need))
    lowered: list[Gate] = []
    for g in mcx_gates:
        controls = tuple(zip(g.qubits[:-1], g.ctrl_state))
        lowered.extend(decompose_mcx(controls, g.qubits[-1], ancillas))
    return ref_stack_peephole(Circuit(width, need, tuple(lowered)))


def ref_metrics(c: Circuit) -> Metrics:
    front = [0] * max(1, c.total_qubits)
    for g in c.gates:
        level = 1 + max(front[q] for q in g.qubits)
        for q in g.qubits:
            front[q] = level
    depth = max(front) if c.gates else 0
    cx = sum(1 for g in c.gates if g.name == "cx")
    return Metrics(size=len(c.gates), cx=cx, depth=depth)


def ref_qref(c: Circuit, q: int) -> str:
    if q < c.data_qubits:
        return f"q[{q}]"
    return f"anc[{q - c.data_qubits}]"


def ref_export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.data_qubits}];"]
    if c.ancilla_qubits:
        lines.append(f"qreg anc[{c.ancilla_qubits}];")
    for g in c.gates:
        refs = ",".join(ref_qref(c, q) for q in g.qubits)
        lines.append(f"{g.name} {refs};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference: the statevector views of ``Circuit._view_ops`` as they were
# built before it read them from each gate's qubits: each table entry
# decoded to its masks, and the masks read back axis by axis.  Kept
# verbatim apart from the names.

def ref_view_index(op: Op, n: int) -> tuple[tuple[int | slice, ...], tuple[int | slice, ...]]:
    """Two index tuples into the (2,)*n view of a state, selecting the
    amplitudes whose controls are all 1.  For action x they take the
    target axis forwards and reversed; for any other action they fix it at
    0 and 1."""
    action, cmask, tmask = op
    idx: list[int | slice] = [1 if cmask >> (n - 1 - q) & 1 else slice(None) for q in range(n)]
    t = n - tmask.bit_length()
    out = []
    for end in (slice(None), slice(None, None, -1)) if action == "x" else (0, 1):
        idx[t] = end
        out.append(tuple(idx))
    return out[0], out[1]


def ref_view_ops(gates: Iterable[Gate], n: int) -> list[tuple[str, tuple, tuple]]:
    """Per gate, (action, first, second): the index tuples of
    ``ref_view_index`` into the (2,)*n view of a statevector."""
    return [(op[0], *ref_view_index(op, n)) for op in (_decode(g, n) for g in gates)]


# ---------------------------------------------------------------------------
# Reference: ``simulate_state`` as a dense statevector on every circuit,
# before classical circuits took the bit-sliced path, kept verbatim apart
# from its name and from reading one view per gate of ``c.gates``.  The
# views come from ``ref_view_ops``, the route through the decoded masks
# that ``Circuit._view_ops`` took before it read each gate's qubits, so
# that this reference does not follow the code it checks.


def ref_dense_simulate_state(c: Circuit, v: AmpVec) -> AmpVec:
    """Statevector action on a ket over data-qubit bit-strings.

    The state is a dense complex128 vector over all 2^n basis indices of
    the n data and ancilla qubits (qubit q at bit n-1-q), so circuits are
    capped at ``MAX_STATE_QUBITS`` qubits.  Controlled X gates swap the
    amplitudes their masks select, and H and T/Tdg act on one axis of a
    (2,)*n view.  Amplitudes at or below ``DEFAULT_TOL`` are dropped from
    the result; any other amplitude on a set ancilla raises ``AncillaError``,
    which names the first such basis state.
    """
    n, anc = c.total_qubits, c.ancilla_qubits
    if n > MAX_STATE_QUBITS:
        raise SizeLimitError(
            f"circuit has {n} qubits; the statevector is capped at {MAX_STATE_QUBITS}"
        )
    for label, _ in v.items():
        if len(label) != c.data_qubits or set(label) - {"0", "1"}:
            raise ValueError(f"state label {label!r} must be {c.data_qubits} bits")
    psi = np.zeros(1 << n, dtype=np.complex128)
    for label, a in v.items():
        psi[int(label or "0", 2) << anc] = a
    view = psi.reshape((2,) * n)
    for action, first, second in ref_view_ops(c.gates, n):
        if action == "x":
            view[first] = view[second]
        elif action == "h":
            zero, one = view[first], view[second]
            view[first], view[second] = (zero + one) * _SQRT2_INV, (zero - one) * _SQRT2_INV
        else:
            view[second] *= _PHASE[action]

    nonzero = np.flatnonzero(np.abs(psi) > DEFAULT_TOL)
    d, mask = c.data_qubits, (1 << anc) - 1
    dirty = nonzero[(nonzero & mask) != 0]
    if len(dirty):
        i = int(dirty[0])
        data, ancillas = _label(i >> anc, d), _label(i & mask, anc)
        raise AncillaError(f"ancillas left dirty: amplitude on data {data}, ancillas {ancillas}")
    return AmpVec(zip((_label(i >> anc, d) for i in nonzero.tolist()), psi[nonzero].tolist()))


# ---------------------------------------------------------------------------
# Reference: the label-dict simulator that circuitgen used before its
# integer-index rewrite, kept verbatim apart from the function names, from
# its branches for an mcx gate, which the gate set no longer has, and from
# its texts for a bad input and a dirty ancilla, which are now those of
# ``simulate_state``: ``ref_label_simulate_state`` names the first dirty
# basis state in index order in ``_dirty``'s words, where it once raised
# "synthesis bug: amplitude on a dirty ancilla" at whichever it met first.
# ``ref_label_simulate_state`` walks a dict of bit-string labels, one gate
# at a time: on one input it takes about half the time of
# ``ref_dense_simulate_state``, which the lanes need for its exact bits.

def _classical_step(bits: list[int], g: Gate) -> None:
    if g.name == "x":
        bits[g.qubits[0]] ^= 1
    elif g.name == "cx":
        if bits[g.qubits[0]]:
            bits[g.qubits[1]] ^= 1
    elif g.name == "ccx":
        if bits[g.qubits[0]] and bits[g.qubits[1]]:
            bits[g.qubits[2]] ^= 1
    else:
        raise ValueError(f"not a classical gate: {g.name}")


def ref_simulate(c: Circuit, input_bits: str, tol: float = 1e-9) -> str:
    """Run a circuit on one computational-basis input.

    Classical circuits follow the permutation path; otherwise the
    statevector is computed and must collapse to a single basis state.
    Ancillas start at zero and must return to zero.
    """
    if len(input_bits) != c.data_qubits or set(input_bits) - {"0", "1"}:
        raise ValueError(f"state label {input_bits!r} must be {c.data_qubits} bits")
    if c.is_classical():
        bits = [int(b) for b in input_bits] + [0] * c.ancilla_qubits
        for g in c.gates:
            _classical_step(bits, g)
        data = "".join(str(b) for b in bits[: c.data_qubits])
        if any(bits[c.data_qubits:]):
            ancillas = "".join(str(b) for b in bits[c.data_qubits:])
            raise AncillaError(f"ancillas left dirty: amplitude on data {data}, ancillas {ancillas}")
        return data
    out = ref_label_simulate_state(c, AmpVec({input_bits: 1.0}), tol=tol)
    states = [(lbl, a) for lbl, a in out.items() if abs(a) > tol]
    if len(states) != 1 or abs(abs(states[0][1]) - 1.0) > tol:
        raise ValueError("output is not a computational basis state")
    return states[0][0]


def ref_label_simulate_state(c: Circuit, v: AmpVec, tol: float = 1e-9) -> AmpVec:
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
        if g.name in ("x", "cx", "ccx"):
            for bits, a in state.items():
                vals = [int(b) for b in bits]
                fire = (
                    g.name == "x"
                    or (g.name == "cx" and vals[g.qubits[0]])
                    or (g.name == "ccx" and vals[g.qubits[0]] and vals[g.qubits[1]])
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

    d = c.data_qubits
    dirty = [bits for bits, a in state.items() if abs(a) > tol and "1" in bits[d:]]
    if dirty:
        first = min(dirty)  # equal-length bit strings sort in basis index order
        raise AncillaError(f"ancillas left dirty: amplitude on data {first[:d]}, ancillas {first[d:]}")
    out: dict[str, complex] = {}
    for bits, a in state.items():
        if abs(a) <= tol:
            continue
        data = bits[:d]
        out[data] = out.get(data, 0j) + a
    return AmpVec(out)


# ---------------------------------------------------------------------------
# Reference: ``parse_qasm`` before it read each distinct line once through
# a table, with the gate-line parser it used for every line.  Kept verbatim
# apart from the names and one later rule: a register size or qubit index
# is judged by its digits before ``int`` reads it, and a register above
# ``MAX_QASM_QUBITS`` is refused where it is declared.  Only the tests
# against it kill three mutants of ``circuitgen``: the "gate before qreg"
# test moved ahead of the gate-syntax test in ``_QasmLines._gate``;
# ``{line!r}`` for ``{raw!r}`` in the "declared twice" text; and
# ``_decimal`` without its non-ASCII branch.

_QASM_QREG = re.compile(r"qreg\s+(q|anc)\[(\d+)\];")
_QASM_GATE = re.compile(rf"^({'|'.join(GATES)})\s+(.+);$")
_QASM_REF = re.compile(r"^(q|anc)\[(\d+)\]$")


def ref_parse_qasm(text: str) -> Circuit:
    """Parse the emitted OpenQASM 2.0 subset back into a circuit.

    Each register may be declared once, before any gate that uses it, and
    every reference must lie inside its register.  So a gate line means
    the same wherever it occurs: each distinct line is parsed and validated
    once, and its repeats share the same (frozen) ``Gate``.
    """
    sizes: dict[str, int] = {}
    seen: dict[str, Gate] = {}
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        g = seen.get(line)
        if g is None:
            if not line or line.startswith(("//", "OPENQASM", "include")):
                continue
            m = _QASM_QREG.fullmatch(line)
            if m:
                if m.group(1) in sizes:
                    raise ValueError(f"register {m.group(1)} declared twice: {raw!r}")
                size = _ref_decimal(m.group(2))
                if len(size) > len(str(MAX_QASM_QUBITS)) or int(size) > MAX_QASM_QUBITS:
                    raise SizeLimitError(f"register {m.group(1)} has {size} qubits; capped at {MAX_QASM_QUBITS}")
                sizes[m.group(1)] = int(size)
                continue
            g = seen[line] = ref_parse_gate_line(line, raw, sizes)
        gates.append(g)
    if "q" not in sizes:
        raise ValueError("missing qreg declaration")
    return Circuit(sizes["q"], sizes.get("anc", 0), tuple(gates))


def ref_parse_gate_line(line: str, raw: str, sizes: dict[str, int]) -> Gate:
    gm = _QASM_GATE.fullmatch(line)
    if gm is None:
        raise ValueError(f"unsupported QASM line: {raw!r}")
    if "q" not in sizes:
        raise ValueError("gate before qreg declaration")
    qubits = []
    for ref in gm.group(2).split(","):
        rm = _QASM_REF.fullmatch(ref.strip())
        if rm is None:
            raise ValueError(f"bad qubit reference {ref!r}")
        reg, i = rm.group(1), _ref_decimal(rm.group(2))
        if reg not in sizes:
            raise ValueError(f"qubit reference {reg}[{i}] to an undeclared register")
        if len(i) > len(str(sizes[reg])) or int(i) >= sizes[reg]:
            raise ValueError(f"qubit reference {reg}[{i}] outside qreg {reg}[{sizes[reg]}]")
        qubits.append(int(i) if reg == "q" else sizes["q"] + int(i))
    return Gate(gm.group(1), tuple(qubits))


def _ref_decimal(digits: str) -> str:
    """Decimal digits as ``str(int(digits))`` prints them, without ``int``."""
    return "".join(str(unicodedata.decimal(c)) for c in digits).lstrip("0") or "0"
