"""Compile permutation matrices to X/CNOT/Toffoli circuits with QASM export.

A permutation matrix over a 2^k basis is decomposed into transpositions
of encoded bit-strings; each transposition is realized as a Gray-code
chain of multi-controlled X gates (with positive and negative controls),
and every multi-controlled X is lowered to Toffoli gates through a
compute/uncompute ladder over ancilla qubits, which are always returned
to zero.  Circuits export to OpenQASM 2.0 and simulate on integer basis
indices: classical circuits (X/CX/CCX/MCX only) on one basis input by
bitmask, any circuit on a ket by a dense statevector of at most
``MAX_STATE_QUBITS`` qubits.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .relalg import FinBasis, SizeLimitError
from .vecmonad import AmpVec, CMatrix

__all__ = [
    "MAX_STATE_QUBITS",
    "AncillaError",
    "Circuit",
    "Encoding",
    "Gate",
    "Metrics",
    "NonPermutationError",
    "decompose_mcx",
    "export_qasm",
    "metrics",
    "parse_qasm",
    "peephole",
    "simulate",
    "simulate_state",
    "synth_permutation",
]

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)
_PHASE = {"t": _T_PHASE, "tdg": np.conj(_T_PHASE)}

MAX_STATE_QUBITS = 20
"""Largest data plus ancilla qubit count ``simulate_state`` accepts: its
dense statevector takes 16 * 2^n bytes (16 MiB at the cap)."""

Op = tuple[str, int, int, int]
"""A decoded gate: (kind, control mask, control value, target mask), where
kind is "x" for every controlled X (x/cx/ccx/mcx) or "h", "t", "tdg"."""


class NonPermutationError(ValueError):
    """Raised for inputs outside the permutation fragment: general unitary
    synthesis is out of scope here."""


class AncillaError(ValueError):
    """Raised when a decomposition lacks ancilla room, or a circuit leaves
    an ancilla dirty."""


@dataclass(frozen=True)
class Encoding:
    """Bijection between basis labels and k-bit strings (index binary)."""

    basis: FinBasis

    def __post_init__(self) -> None:
        n = len(self.basis)
        k = n.bit_length() - 1
        if n != 1 << k:
            raise ValueError(f"basis size {n} is not a power of two")
        object.__setattr__(self, "width", k)

    width: int = field(init=False, repr=False, compare=False)

    def bits_of(self, label: str) -> str:
        return format(self.basis.index(label), f"0{self.width}b")

    def label_of(self, bits: str) -> str:
        if len(bits) != self.width or set(bits) - {"0", "1"}:
            raise ValueError(f"bad bit-string {bits!r} for width {self.width}")
        return self.basis.labels[int(bits, 2)]


@dataclass(frozen=True)
class Gate:
    """One gate; qubits list controls first, target last.

    ``ctrl_state`` gives one polarity bit per control for ``mcx`` (1 fires
    on a set control); plain cx/ccx controls are implicitly positive.
    """

    name: str
    qubits: tuple[int, ...]
    ctrl_state: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        arity = {"x": 1, "h": 1, "t": 1, "tdg": 1, "cx": 2, "ccx": 3}
        if self.name in arity:
            if len(self.qubits) != arity[self.name]:
                raise ValueError(f"{self.name} takes {arity[self.name]} qubits")
            if self.ctrl_state:
                raise ValueError(f"{self.name} does not carry a polarity list")
        elif self.name == "mcx":
            if len(self.qubits) < 2:
                raise ValueError("mcx needs at least one control and a target")
            if len(self.ctrl_state) != len(self.qubits) - 1:
                raise ValueError("mcx polarity list must match control count")
        else:
            raise ValueError(f"unknown gate kind {self.name!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over data qubits followed by ancilla qubits."""

    data_qubits: int
    ancilla_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        total = self.data_qubits + self.ancilla_qubits
        # A Gate shared by many positions, as parse_qasm makes, is checked once.
        for g in {id(g): g for g in self.gates}.values():
            if any(q < 0 or q >= total for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {total} qubits")

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.ancilla_qubits

    def is_classical(self) -> bool:
        return all(op[0] == "x" for op in self.ops)

    @cached_property
    def ops(self) -> tuple[Op, ...]:
        """The gates as bitmasks over basis indices, qubit q at bit n-1-q;
        decoded once per circuit and once per distinct Gate instance."""
        n = self.total_qubits
        decoded: dict[int, Op] = {}
        out = []
        for g in self.gates:
            op = decoded.get(id(g))
            if op is None:
                op = decoded[id(g)] = _decode(g, n)
            out.append(op)
        return tuple(out)

    @cached_property
    def _view_ops(self) -> tuple[tuple[str, tuple, tuple], ...]:
        """``ops`` as (kind, first, second), the index tuples of ``_view_index``
        into the (2,)*n view of a statevector; built once per distinct op."""
        n = self.total_qubits
        built: dict[Op, tuple[str, tuple, tuple]] = {}
        out = []
        for op in self.ops:
            v = built.get(op)
            if v is None:
                v = built[op] = (op[0], *_view_index(op, n))
            out.append(v)
        return tuple(out)


def _decode(g: Gate, n: int) -> Op:
    *controls, target = g.qubits
    polarity = g.ctrl_state or (1,) * len(controls)
    cmask = cval = 0
    for q, pol in zip(controls, polarity):
        cmask |= 1 << (n - 1 - q)
        cval |= pol << (n - 1 - q)
    kind = "x" if g.name in ("x", "cx", "ccx", "mcx") else g.name
    return kind, cmask, cval, 1 << (n - 1 - target)


@dataclass(frozen=True)
class Metrics:
    size: int
    cx: int
    depth: int

    def to_json(self) -> str:
        return json.dumps({"size": self.size, "cx": self.cx, "depth": self.depth})


# ---------------------------------------------------------------------------
# Multi-controlled X lowering

def decompose_mcx(
    controls: tuple[tuple[int, int], ...], target: int, ancillas: tuple[int, ...]
) -> tuple[Gate, ...]:
    """Lower an MCX with per-control polarity to {X, CX, CCX}.

    Negative controls are conjugated by X; three or more controls use a
    CCX compute/uncompute ladder needing ``len(controls) - 2`` ancillas,
    each restored to its prior value.
    """
    need = max(0, len(controls) - 2)
    if len(ancillas) < need:
        raise AncillaError(f"need {need} ancillas, have {len(ancillas)}")

    flips = tuple(Gate("x", (q,)) for q, pol in controls if pol == 0)
    qs = tuple(q for q, _ in controls)

    core: list[Gate]
    if len(qs) == 0:
        core = [Gate("x", (target,))]
    elif len(qs) == 1:
        core = [Gate("cx", (qs[0], target))]
    elif len(qs) == 2:
        core = [Gate("ccx", (qs[0], qs[1], target))]
    else:
        compute = [Gate("ccx", (qs[0], qs[1], ancillas[0]))]
        for i in range(len(qs) - 3):
            compute.append(Gate("ccx", (ancillas[i], qs[i + 2], ancillas[i + 1])))
        hit = Gate("ccx", (ancillas[len(qs) - 3], qs[-1], target))
        core = compute + [hit] + list(reversed(compute))
    return flips + tuple(core) + flips


# ---------------------------------------------------------------------------
# Permutation synthesis

def _permutation_of(m: CMatrix, tol: float = 1e-9) -> list[int]:
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
        others = np.abs(col) > tol
        if int(np.count_nonzero(others)) != 1:
            raise NonPermutationError(
                "matrix is not a 0/1 permutation; general unitary synthesis is out of scope"
            )
        perm.append(int(ones[0]))
    if sorted(perm) != list(range(rows)):
        raise NonPermutationError("columns do not form a permutation")
    return perm


def _transpositions(perm: list[int]) -> list[tuple[int, int]]:
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


def _adjacent_swap_mcx(u: int, v: int, width: int) -> Gate:
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
    return Gate("mcx", tuple(controls) + (target,), tuple(state))


def _gray_chain(u: int, v: int, width: int) -> list[Gate]:
    """Transposition (u v) as a Gray-code chain of adjacent-state swaps."""
    diffs = [q for q in range(width) if ((u ^ v) >> (width - 1 - q)) & 1]
    path = [u]
    cur = u
    for q in diffs:
        cur ^= 1 << (width - 1 - q)
        path.append(cur)
    ups = [_adjacent_swap_mcx(path[i], path[i + 1], width) for i in range(len(path) - 1)]
    return ups + ups[:-1][::-1]


def synth_permutation(m: CMatrix, enc: Encoding) -> Circuit:
    """Circuit over data qubits (plus ancillas) realizing a permutation matrix
    on the encoded computational basis."""
    if m.src != enc.basis or m.tgt != enc.basis:
        raise ValueError("matrix bases must match the encoding basis")
    perm = _permutation_of(m)
    width = enc.width

    mcx_gates: list[Gate] = []
    for u, v in _transpositions(perm):
        mcx_gates.extend(_gray_chain(u, v, width))

    need = max((max(0, len(g.qubits) - 3) for g in mcx_gates), default=0)
    ancillas = tuple(range(width, width + need))
    lowered: list[Gate] = []
    for g in mcx_gates:
        controls = tuple(zip(g.qubits[:-1], g.ctrl_state))
        lowered.extend(decompose_mcx(controls, g.qubits[-1], ancillas))
    return peephole(Circuit(width, need, tuple(lowered)))


def peephole(c: Circuit) -> Circuit:
    """Cancel adjacent identical self-inverse gates until a fixed point."""
    gates = list(c.gates)
    changed = True
    while changed:
        changed = False
        i = 0
        out: list[Gate] = []
        while i < len(gates):
            if (
                i + 1 < len(gates)
                and gates[i] == gates[i + 1]
                and gates[i].name in ("x", "cx", "ccx", "h")
            ):
                i += 2
                changed = True
            else:
                out.append(gates[i])
                i += 1
        gates = out
    return Circuit(c.data_qubits, c.ancilla_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# Simulation
#
# Both simulators work on integer basis indices: qubit q is bit n-1-q of
# the index over all n = data + ancilla qubits, so qubit 0 is the leftmost
# character of a bit-string label and the ancillas are the low bits.
# Labels are parsed on input and printed on output only.

def _label(i: int, width: int) -> str:
    # The guard bit keeps leading zeros and gives "" for width 0.
    return format(i | (1 << width), "b")[1:]


def simulate(c: Circuit, input_bits: str, tol: float = 1e-9) -> str:
    """Run a circuit on one computational-basis input.

    A classical circuit (x/cx/ccx/mcx only) folds its gate masks over one
    integer basis index; any other circuit goes through ``simulate_state``
    and must collapse to a single basis state.  Ancillas start at zero and
    must return to zero.
    """
    if len(input_bits) != c.data_qubits or set(input_bits) - {"0", "1"}:
        raise ValueError(f"input must be {c.data_qubits} bits")
    if not c.is_classical():
        out = simulate_state(c, AmpVec({input_bits: 1.0}), tol=tol)
        states = [(lbl, a) for lbl, a in out.items() if abs(a) > tol]
        if len(states) != 1 or abs(abs(states[0][1]) - 1.0) > tol:
            raise ValueError("output is not a computational basis state")
        return states[0][0]
    anc = c.ancilla_qubits
    s = int(input_bits or "0", 2) << anc
    for _, cmask, cval, tmask in c.ops:
        if s & cmask == cval:
            s ^= tmask
    if s & ((1 << anc) - 1):
        raise AncillaError(f"ancillas left dirty on input {input_bits}")
    return _label(s >> anc, c.data_qubits)


def _view_index(op: Op, n: int) -> tuple[tuple[int | slice, ...], tuple[int | slice, ...]]:
    """Two index tuples into the (2,)*n view of a state, selecting the
    amplitudes whose controls match.  For a controlled X they take the
    target axis forwards and reversed; for H and T they fix it at 0 and 1."""
    kind, cmask, cval, tmask = op
    idx: list[int | slice] = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        idx.append(int(bool(cval & bit)) if cmask & bit else slice(None))
    t = n - tmask.bit_length()
    out = []
    for end in (slice(None), slice(None, None, -1)) if kind == "x" else (0, 1):
        idx[t] = end
        out.append(tuple(idx))
    return out[0], out[1]


def simulate_state(c: Circuit, v: AmpVec, tol: float = 1e-9) -> AmpVec:
    """Statevector action on a ket over data-qubit bit-strings.

    The state is a dense complex128 vector over all 2^n basis indices of
    the n data and ancilla qubits (qubit q at bit n-1-q), so circuits are
    capped at ``MAX_STATE_QUBITS`` qubits.  Controlled X gates swap the
    amplitudes their masks select, and H and T/Tdg act on one axis of a
    (2,)*n view.  Amplitudes at or below ``tol`` are dropped from the
    result; any other amplitude on a set ancilla raises ``AncillaError``.
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
    for kind, first, second in c._view_ops:
        if kind == "x":
            view[first] = view[second]
        elif kind == "h":
            zero, one = view[first], view[second]
            view[first], view[second] = (zero + one) * _SQRT2_INV, (zero - one) * _SQRT2_INV
        else:
            view[second] *= _PHASE[kind]

    nonzero = np.flatnonzero(np.abs(psi) > tol)
    if np.any(nonzero & ((1 << anc) - 1)):
        raise AncillaError("synthesis bug: amplitude on a dirty ancilla")
    d = c.data_qubits
    return AmpVec(zip((_label(i >> anc, d) for i in nonzero.tolist()), psi[nonzero].tolist()))


# ---------------------------------------------------------------------------
# Metrics and OpenQASM 2.0

def metrics(c: Circuit) -> Metrics:
    front = [0] * max(1, c.total_qubits)
    for g in c.gates:
        level = 1 + max(front[q] for q in g.qubits)
        for q in g.qubits:
            front[q] = level
    depth = max(front) if c.gates else 0
    cx = sum(1 for g in c.gates if g.name == "cx")
    return Metrics(size=len(c.gates), cx=cx, depth=depth)


def _qref(c: Circuit, q: int) -> str:
    if q < c.data_qubits:
        return f"q[{q}]"
    return f"anc[{q - c.data_qubits}]"


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text; multi-controlled gates must be lowered first."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.data_qubits}];"]
    if c.ancilla_qubits:
        lines.append(f"qreg anc[{c.ancilla_qubits}];")
    for g in c.gates:
        if g.name == "mcx":
            raise ValueError("lower mcx gates with decompose_mcx before export")
        refs = ",".join(_qref(c, q) for q in g.qubits)
        lines.append(f"{g.name} {refs};")
    return "\n".join(lines) + "\n"


_QASM_QREG = re.compile(r"qreg\s+(q|anc)\[(\d+)\];")
_QASM_GATE = re.compile(r"^(x|h|t|tdg|cx|ccx)\s+(.+);$")
_QASM_REF = re.compile(r"^(q|anc)\[(\d+)\]$")


def parse_qasm(text: str) -> Circuit:
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
                sizes[m.group(1)] = int(m.group(2))
                continue
            g = seen[line] = _parse_gate_line(line, raw, sizes)
        gates.append(g)
    if "q" not in sizes:
        raise ValueError("missing qreg declaration")
    return Circuit(sizes["q"], sizes.get("anc", 0), tuple(gates))


def _parse_gate_line(line: str, raw: str, sizes: dict[str, int]) -> Gate:
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
        reg, i = rm.group(1), int(rm.group(2))
        if reg not in sizes:
            raise ValueError(f"qubit reference {reg}[{i}] to an undeclared register")
        if i >= sizes[reg]:
            raise ValueError(f"qubit reference {reg}[{i}] outside qreg {reg}[{sizes[reg]}]")
        qubits.append(i if reg == "q" else sizes["q"] + i)
    return Gate(gm.group(1), tuple(qubits))
