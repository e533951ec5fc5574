"""Compile permutation matrices to X/CNOT/Toffoli circuits with QASM export.

A permutation matrix over a 2^k basis is decomposed into transpositions
of encoded bit-strings; each transposition is realized as a Gray-code
chain of multi-controlled X gates (with positive and negative controls),
and every multi-controlled X is lowered at synthesis time to x/cx/ccx
through a compute/uncompute ladder over ancillas, which are always
returned to zero.  So the circuit IR holds only the ``qelib1.inc`` gates
of ``GATES``, every control positive.

A k=8 permutation compiles to tens of thousands of gate positions but a
few dozen distinct gates, so every pass over a circuit does its work once
per distinct ``Gate`` instance.  Each distinct MCX is lowered once per
synthesis and its gates interned; ``parse_qasm`` parses each distinct line
once; a ``Circuit`` keeps a table of its distinct instances, through which
``is_classical``, ``Circuit.ops`` and QASM export map the positions.  Per
position there remain only C-level ``map``/dict lookups and the passes that
need order: the cancellation stack of ``peephole``, the simulators and the
depth sweep of ``metrics``.  Synthesis and ``parse_qasm`` check each
distinct gate as they build it, and ``peephole`` keeps gates of a checked
circuit, so the circuits of all three skip the constructor's range check.

Circuits export to OpenQASM 2.0 and simulate on integers, with labels
parsed and printed only at the edges.  A classical circuit (x/cx/ccx only)
runs on one basis input by a fold of bitmasks over its index, and on a ket
by a bit-sliced lane kernel: each qubit is one big int holding that bit of
every support state, so each gate is one xor over all the states at once.
Any other circuit runs on a ket as a dense statevector.  Both ket paths
take at most ``MAX_STATE_QUBITS`` qubits and give the same ket, bit for
bit.  ``simulate`` keeps its mask fold: on one input, a lane of one bit
would only add the label round trip to the same gate loop.
"""
from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TypeVar

import numpy as np

from .relalg import FinBasis, SizeLimitError
from .vecmonad import DEFAULT_TOL, AmpVec, CMatrix

__all__ = [
    "GATES",
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

GATES: dict[str, tuple[str, int]] = {
    "x": ("x", 1), "cx": ("x", 2), "ccx": ("x", 3), "h": ("h", 1), "t": ("t", 1), "tdg": ("tdg", 1),
}
"""The gate set: each IR kind, as named in ``qelib1.inc``, maps to its
action on the target qubit and its qubit count.  Every qubit but the last
is a control that fires on 1."""

Op = tuple[str, int, int]
"""A decoded gate: (action, control mask, target mask), the action being
that of ``GATES``; the target is acted on where every control bit is set."""

_T = TypeVar("_T")


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


@dataclass(frozen=True)
class Gate:
    """One gate of ``GATES``; qubits list controls first, target last."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in GATES:
            raise ValueError(f"unknown gate kind {self.name!r}")
        arity = GATES[self.name][1]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.name} takes {arity} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over data qubits followed by ancilla qubits.

    Positions may share one ``Gate`` instance.  ``_distinct`` holds each
    distinct instance once, keyed by ``id``; the public constructor builds
    it on first use and checks qubit ranges once per entry, so each shared
    gate is checked once.  ``is_classical``, the decoding of ``ops`` and the
    lines of ``export_qasm`` are computed once per entry and mapped onto the
    positions through a dict.  ``_trusted`` takes the table from code that
    built the gates and checked them against the same qubit count.
    """

    data_qubits: int
    ancilla_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        total = self.data_qubits + self.ancilla_qubits
        for g in self._distinct.values():
            if any(q < 0 or q >= total for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {total} qubits")

    @classmethod
    def _trusted(
        cls, data_qubits: int, ancilla_qubits: int, gates: tuple[Gate, ...], distinct: dict[int, Gate]
    ) -> Circuit:
        """A circuit whose gates all lie in range, with ``distinct`` as its
        table: every distinct instance of ``gates`` keyed by ``id``, and
        nothing else.  Not checked."""
        c = object.__new__(cls)
        object.__setattr__(c, "data_qubits", data_qubits)
        object.__setattr__(c, "ancilla_qubits", ancilla_qubits)
        object.__setattr__(c, "gates", gates)
        object.__setattr__(c, "_distinct", distinct)
        return c

    def __reduce__(self):
        # The table is keyed by id, so a copy or an unpickled circuit builds its own.
        return type(self), (self.data_qubits, self.ancilla_qubits, self.gates)

    @cached_property
    def _distinct(self) -> dict[int, Gate]:
        return dict(zip(map(id, self.gates), self.gates))

    def _per_gate(self, f: Callable[[Gate], _T]) -> tuple[_T, ...]:
        """``f`` of the gate at each position, called once per distinct instance."""
        of = {i: f(g) for i, g in self._distinct.items()}
        return tuple(map(of.__getitem__, map(id, self.gates)))

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.ancilla_qubits

    def is_classical(self) -> bool:
        return self._classical

    @cached_property
    def _classical(self) -> bool:
        return all(GATES[g.name][0] == "x" for g in self._distinct.values())

    @cached_property
    def ops(self) -> tuple[Op, ...]:
        """The gates as bitmasks over basis indices, qubit q at bit n-1-q."""
        n = self.total_qubits
        return self._per_gate(lambda g: _decode(g, n))

    @cached_property
    def _view_ops(self) -> tuple[tuple[str, tuple, tuple], ...]:
        """The gates as (action, first, second), the index tuples of
        ``_view_index`` into the (2,)*n view of a statevector."""
        n = self.total_qubits

        def view(g: Gate) -> tuple[str, tuple, tuple]:
            op = _decode(g, n)
            return (op[0], *_view_index(op, n))

        return self._per_gate(view)

    @cached_property
    def _lane_ops(self) -> tuple[tuple[int, int, int], ...]:
        """The gates of a classical circuit as (first, second, target)
        qubits for ``_lanes``: target ^= first & second, a missing control
        being qubit n, whose lane is all ones."""
        n = self.total_qubits
        return self._per_gate(lambda g: ((n, n) + g.qubits)[-3:])


def _decode(g: Gate, n: int) -> Op:
    *controls, target = g.qubits
    cmask = sum(1 << (n - 1 - q) for q in controls)  # the qubits are distinct
    return GATES[g.name][0], cmask, 1 << (n - 1 - target)


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

def _permutation_of(m: CMatrix, tol: float = DEFAULT_TOL) -> list[int]:
    rows, cols = m.entries.shape
    if rows != cols:
        raise NonPermutationError("matrix is not square")
    a = np.abs(m.entries)
    ones = np.abs(m.entries - 1.0) <= tol
    # Per column: one entry near 1, nothing above 1 + tol, and nothing
    # else above tol.
    bad = (
        (np.count_nonzero(ones, axis=0) != 1)
        | (a.max(axis=0, initial=0.0) > 1.0 + tol)
        | (np.count_nonzero(a > tol, axis=0) != 1)
    )
    if bad.any():
        raise NonPermutationError(
            "matrix is not a 0/1 permutation; general unitary synthesis is out of scope"
        )
    perm = ones.argmax(axis=0).tolist()
    if len(set(perm)) != rows:
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


def _gray_chain(u: int, v: int, width: int) -> list[tuple[int, int]]:
    """Transposition (u v) as a Gray-code chain of adjacent-state swaps.

    Each swap is an MCX named by (state with the target bit cleared, target
    qubit): the target flips when every other qubit matches that state
    (bit 0 = leftmost).
    """
    ups = []
    cur = u
    for q in range(width):
        bit = 1 << (width - 1 - q)
        if (u ^ v) & bit:
            ups.append((cur & ~bit, q))
            cur ^= bit
    return ups + ups[:-1][::-1]


def synth_permutation(m: CMatrix, tol: float = DEFAULT_TOL) -> Circuit:
    """Circuit over data qubits (plus ancillas) realizing a permutation matrix,
    to within ``tol``, on the computational basis of ``Encoding(m.src)``;
    the matrix must map that basis to itself.

    Each distinct Gray-chain MCX is lowered once per call, and its gates
    are interned, so the raw circuit holds one ``Gate`` instance per
    distinct gate.  Those gates act on the data qubits and the ancillas
    that ``decompose_mcx`` was given, so the raw circuit is built trusted,
    with the interned gates as its table.  ``peephole`` leaves one shared
    instance per distinct gate: ``export_qasm`` formats and ``Circuit.ops``
    decodes each distinct gate once, and the depth sweep of ``metrics``
    builds nothing per position.
    """
    width = Encoding(m.src).width
    if m.tgt != m.src:
        raise ValueError("matrix bases must match the encoding basis")
    perm = _permutation_of(m, tol)

    swaps = [s for u, v in _transpositions(perm) for s in _gray_chain(u, v, width)]
    need = max(0, width - 3) if swaps else 0
    ancillas = tuple(range(width, width + need))
    interned: dict[tuple[str, tuple[int, ...]], Gate] = {}
    lowered_of: dict[tuple[int, int], tuple[Gate, ...]] = {}
    lowered: list[Gate] = []
    for swap in swaps:
        seq = lowered_of.get(swap)
        if seq is None:
            state, target = swap
            controls = tuple(
                (q, (state >> (width - 1 - q)) & 1) for q in range(width) if q != target
            )
            gates = decompose_mcx(controls, target, ancillas)
            seq = lowered_of[swap] = tuple(interned.setdefault((g.name, g.qubits), g) for g in gates)
        lowered.extend(seq)
    return peephole(Circuit._trusted(width, need, tuple(lowered), {id(g): g for g in interned.values()}))


def peephole(c: Circuit) -> Circuit:
    """Cancel adjacent identical self-inverse gates (action x or h), in one
    pass on a stack.

    A gate cancels the top of the stack when the two are equal, so pairs
    that meet only after an inner pair cancels go too: the result is the
    fixed point of repeated adjacent cancellation.  Each distinct instance
    in ``c``'s table is mapped once to the first instance of its distinct
    gate, so equality on the stack is an identity test; the stack is the
    one pass over positions.  The result holds the shared instances that
    remain.  They are gates of ``c``, already checked against the same
    qubit count, so the result is built trusted.
    """
    shared: dict[Gate, Gate] = {}
    shared_of = {i: shared.setdefault(g, g) for i, g in c._distinct.items()}
    cancels = {id(s) for s in shared.values() if GATES[s.name][0] in ("x", "h")}
    # With no two instances equal, each instance is its own shared gate.
    seq = c.gates if len(shared) == len(shared_of) else map(shared_of.__getitem__, map(id, c.gates))
    out: list = [None]  # a bottom that is no gate
    top = None
    for s in seq:
        if s is top and id(s) in cancels:
            out.pop()
            top = out[-1]
        else:
            out.append(s)
            top = s
    gates = tuple(out[1:])
    kept = set(map(id, gates))
    return Circuit._trusted(
        c.data_qubits, c.ancilla_qubits, gates, {id(s): s for s in shared.values() if id(s) in kept}
    )


# ---------------------------------------------------------------------------
# Simulation
#
# The simulators work on integer basis indices: qubit q is bit n-1-q of
# the index over all n = data + ancilla qubits, so qubit 0 is the leftmost
# character of a bit-string label and the ancillas are the low bits.  The
# lane kernel keeps one int per qubit instead, across the states of a ket.
# Labels are parsed on input and printed on output only.

def _label(i: int, width: int) -> str:
    # The guard bit keeps leading zeros and gives "" for width 0.
    return format(i | (1 << width), "b")[1:]


def simulate(c: Circuit, input_bits: str) -> str:
    """Run a circuit on one computational-basis input.

    A classical circuit (x/cx/ccx only) folds its gate masks over one
    integer basis index; any other circuit goes through ``simulate_state``
    and must collapse to a single basis state, to within ``DEFAULT_TOL``.
    Ancillas start at zero and must return to zero.
    """
    if len(input_bits) != c.data_qubits or set(input_bits) - {"0", "1"}:
        raise ValueError(f"input must be {c.data_qubits} bits")
    if not c.is_classical():
        out = simulate_state(c, AmpVec({input_bits: 1.0}))
        states = [(lbl, a) for lbl, a in out.items() if abs(a) > DEFAULT_TOL]
        if len(states) != 1 or abs(abs(states[0][1]) - 1.0) > DEFAULT_TOL:
            raise ValueError("output is not a computational basis state")
        return states[0][0]
    anc = c.ancilla_qubits
    s = int(input_bits or "0", 2) << anc
    for _, cmask, tmask in c.ops:
        if s & cmask == cmask:
            s ^= tmask
    if s & ((1 << anc) - 1):
        raise AncillaError(f"ancillas left dirty on input {input_bits}")
    return _label(s >> anc, c.data_qubits)


def _view_index(op: Op, n: int) -> tuple[tuple[int | slice, ...], tuple[int | slice, ...]]:
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


def simulate_state(c: Circuit, v: AmpVec) -> AmpVec:
    """Statevector action on a ket over data-qubit bit-strings.

    Circuits are capped at ``MAX_STATE_QUBITS`` data and ancilla qubits.
    A classical circuit (x/cx/ccx only) permutes basis states, so it runs
    once on the support of the ket, bit-sliced by ``_lanes``; any other
    circuit acts on a dense complex128 vector over all 2^n basis indices
    (qubit q at bit n-1-q): controlled X gates swap the amplitudes their
    masks select, and H and T/Tdg act on one axis of a (2,)*n view.  Both
    give the same ket: amplitudes at or below ``DEFAULT_TOL`` are dropped,
    the rest listed in basis index order, and any other amplitude on a set
    ancilla raises ``AncillaError``, which names the first such basis state
    in that order.  ``simulate`` keeps its fold of bitmasks over one index:
    a one-state lane costs the label round trip and saves nothing.
    """
    n, anc = c.total_qubits, c.ancilla_qubits
    if n > MAX_STATE_QUBITS:
        raise SizeLimitError(
            f"circuit has {n} qubits; the statevector is capped at {MAX_STATE_QUBITS}"
        )
    d = c.data_qubits
    for label, _ in v.items():
        if len(label) != d or set(label) - {"0", "1"}:
            raise ValueError(f"state label {label!r} must be {d} bits")
    if c.is_classical():
        return _lanes(c, v)
    psi = np.zeros(1 << n, dtype=np.complex128)
    for label, a in v.items():
        psi[int(label or "0", 2) << anc] = a
    view = psi.reshape((2,) * n)
    for action, first, second in c._view_ops:
        if action == "x":
            view[first] = view[second]
        elif action == "h":
            zero, one = view[first], view[second]
            view[first], view[second] = (zero + one) * _SQRT2_INV, (zero - one) * _SQRT2_INV
        else:
            view[second] *= _PHASE[action]

    nonzero = np.flatnonzero(np.abs(psi) > DEFAULT_TOL)
    mask = (1 << anc) - 1
    dirty = nonzero[(nonzero & mask) != 0]
    if len(dirty):
        i = int(dirty[0])
        raise _dirty(_label(i >> anc, d), _label(i & mask, anc))
    return AmpVec(zip((_label(i >> anc, d) for i in nonzero.tolist()), psi[nonzero].tolist()))


def _dirty(data: str, ancillas: str) -> AncillaError:
    return AncillaError(f"ancillas left dirty: amplitude on data {data}, ancillas {ancillas}")


# Python's abs() and NumPy's complex magnitude may differ in the last bits,
# so a magnitude this close to the tolerance is measured as the dense path
# measures it.
_TOL_LO, _TOL_HI = DEFAULT_TOL * (1 - 2**-40), DEFAULT_TOL * (1 + 2**-40)


def _lanes(c: Circuit, v: AmpVec) -> AmpVec:
    """A classical circuit on the k states of a ket at once, bit-sliced:
    qubit q is one k-bit int, whose bit k-1-j is that qubit of state j, and
    each gate is one big-int xor over all k states.  The lanes are read from
    the label strings and printed back with ``format``; the states stay
    paired with their amplitudes, so each is carried over bit for bit."""
    if not len(v):
        return AmpVec()
    labels, amps = zip(*v.items())
    k, d, n = len(labels), c.data_qubits, c.total_qubits
    full = (1 << k) - 1
    lanes = [int("".join(col), 2) for col in zip(*labels)] + [0] * c.ancilla_qubits + [full]
    for a, b, t in c._lane_ops:
        lanes[t] ^= lanes[a] & lanes[b]

    def printed(qubit_lanes: list[int]) -> list[str]:
        """Each state's bits on these qubits, as a label."""
        cols = [format(lane, f"0{k}b") for lane in qubit_lanes]
        return list(map("".join, zip(*cols))) if cols else [""] * k

    out = printed(lanes[:d])
    mags = list(map(abs, amps))
    if any(_TOL_LO <= m <= _TOL_HI for m in mags):  # cut as the dense path's np.abs does
        mags = np.abs(np.array(amps, dtype=np.complex128)).tolist()
    kept = [j for j, m in enumerate(mags) if m > DEFAULT_TOL]
    if any(lanes[d:n]):  # some state has an ancilla set
        anc = printed(lanes[d:n])
        first = min(((out[j], anc[j]) for j in kept if "1" in anc[j]), default=None)
        if first is not None:
            raise _dirty(*first)
    kept.sort(key=out.__getitem__)
    return AmpVec([(out[j], amps[j]) for j in kept])


# ---------------------------------------------------------------------------
# Metrics and OpenQASM 2.0

def metrics(c: Circuit) -> Metrics:
    front = [0] * max(1, c.total_qubits)
    cx = 0
    for g in c.gates:
        qs = g.qubits
        level = 0
        for q in qs:
            if front[q] > level:
                level = front[q]
        level += 1
        for q in qs:
            front[q] = level
        if g.name == "cx":
            cx += 1
    depth = max(front) if c.gates else 0
    return Metrics(size=len(c.gates), cx=cx, depth=depth)


def _qref(c: Circuit, q: int) -> str:
    if q < c.data_qubits:
        return f"q[{q}]"
    return f"anc[{q - c.data_qubits}]"


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text over ``qelib1.inc`` gates; each distinct ``Gate``
    instance is formatted once."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.data_qubits}];"]
    if c.ancilla_qubits:
        lines.append(f"qreg anc[{c.ancilla_qubits}];")
    lines.extend(c._per_gate(lambda g: f"{g.name} {','.join(_qref(c, q) for q in g.qubits)};"))
    return "\n".join(lines) + "\n"


_QASM_QREG = re.compile(r"qreg\s+(q|anc)\[(\d+)\];")
_QASM_GATE = re.compile(rf"^({'|'.join(GATES)})\s+(.+);$")
_QASM_REF = re.compile(r"^(q|anc)\[(\d+)\]$")


def parse_qasm(text: str) -> Circuit:
    """Parse the emitted OpenQASM 2.0 subset back into a circuit.

    Each register may be declared once, before any gate that uses it, and
    every reference must lie inside its register.  So a line means the
    same wherever it occurs, and it fails, if at all, where it first
    occurs; the one exception is a declaration repeated word for word,
    which fails where it recurs.  Each distinct raw line is therefore read
    once, in order of first occurrence, and the lines are then mapped
    through a dict.  Lines equal once stripped share one (frozen) ``Gate``,
    parsed and checked against its register once, so the circuit is built
    trusted, with those gates as its table.
    """
    lines = text.splitlines()
    sizes: dict[str, int] = {}
    seen: dict[str, Gate] = {}
    meaning = _read_lines(lines, sizes, seen)
    if "q" not in sizes:
        raise ValueError("missing qreg declaration")
    gates = tuple(filter(None, map(meaning.__getitem__, lines)))
    return Circuit._trusted(sizes["q"], sizes.get("anc", 0), gates, {id(g): g for g in seen.values()})


def _read_lines(lines: list[str], sizes: dict[str, int], seen: dict[str, Gate]) -> dict[str, Gate | None]:
    """Each distinct raw line of ``lines``, read in order of first
    occurrence, mapped to its gate, or to None for a line without one.
    Declarations fill ``sizes``, and each stripped gate line its entry of
    ``seen``."""
    meaning: dict[str, Gate | None] = dict.fromkeys(lines)  # in order of first occurrence
    for raw in meaning:
        line = raw.strip()
        g = seen.get(line)
        if g is None and line and not line.startswith(("//", "OPENQASM", "include")):
            m = _QASM_QREG.fullmatch(line)
            if m is None:
                g = seen[line] = _parse_gate_line(line, raw, sizes)
            elif m.group(1) in sizes:
                raise ValueError(f"register {m.group(1)} declared twice: {raw!r}")
            elif lines.count(raw) > 1:
                # Fails where it recurs, unless a line before that fails first.
                _read_lines(lines[: lines.index(raw, lines.index(raw) + 1)], {}, {})
                raise ValueError(f"register {m.group(1)} declared twice: {raw!r}")
            else:
                sizes[m.group(1)] = int(m.group(2))
        meaning[raw] = g
    return meaning


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
