"""Compile permutation matrices to X/CNOT/Toffoli circuits with QASM export.

A permutation matrix over a 2^k basis is decomposed into transpositions
of encoded bit-strings; each transposition is realized as a Gray-code
chain of multi-controlled X gates (with positive and negative controls),
and every multi-controlled X is lowered at synthesis time to x/cx/ccx
through a compute/uncompute ladder over ancillas, which are always
returned to zero.  So the circuit IR holds only the ``qelib1.inc`` gates
of ``GATES``, every control positive.

A k=8 permutation compiles to tens of thousands of gate positions but a
few dozen distinct gates, so a ``Circuit`` holds one table of its
distinct gates and its positions as small-int indices into that table,
which the builders fill as they go.  ``synth_permutation`` assembles each
distinct Gray-chain swap from an MCX core lowered once per target qubit
and x flips, and ``parse_qasm`` reads each distinct line and qubit
reference once; both check each distinct gate as they build it, so their
circuits, like those of ``peephole``, skip the constructor's range check.
``_cancel`` is the one cancellation routine.  ``synth_fold`` compiles
the fold of a permutation step over lists on a ``ListEncoding``, one
copy of the step's circuit per list slot, with no fold matrix.  Every
per-gate result (decoded masks, simulator views, QASM lines, qubits for
the depth sweep) is computed once per table entry and read through the
index, and the gate counts of ``metrics`` come from each entry's
position count.  Per position there remain only the passes that need
order: the cancellation stack, the simulators and the depth sweep.

Circuits export to OpenQASM 2.0 and simulate on integers.  Labels are
read and printed at the edges only, by one rule each: every simulator
refuses a label that is not d characters 0 and 1 through ``_read_label``,
names a dirty ancilla by its data and ancilla bits through ``_dirty``,
and prints bits through ``_label``, as ``Encoding.bits_of`` does.  A
classical circuit (x/cx/ccx only) runs on one basis input by a fold of
bitmasks over its index, and on a ket by a bit-sliced lane kernel: each
qubit is one big int holding that bit of every support state, so each
gate is one xor over all the states at once; the lanes need memory in
proportion to the support, so they take any width.  Any other circuit
runs on a ket as a dense statevector, of at most ``MAX_STATE_QUBITS``
qubits.  Where both paths run, they give the same ket, bit for bit.
``simulate`` keeps its mask fold: on one input, a lane of one bit only
adds the label round trip to the same gate loop.
"""
from __future__ import annotations

import json
import re
import unicodedata
from collections.abc import Iterable, Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property

import numpy as np

from . import relalg  # its traced functions are called through the module
from .relalg import FinBasis, SizeLimitError
from .vecmonad import _BULK_MIN, DEFAULT_TOL, AmpVec, CMatrix

__all__ = [
    "GATES",
    "MAX_QASM_QUBITS",
    "MAX_STATE_QUBITS",
    "AncillaError",
    "Circuit",
    "Encoding",
    "Gate",
    "ListEncoding",
    "Metrics",
    "NonPermutationError",
    "decompose_mcx",
    "export_qasm",
    "metrics",
    "parse_qasm",
    "peephole",
    "simulate",
    "simulate_state",
    "synth_fold",
    "synth_permutation",
]

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)
_PHASE = {"t": _T_PHASE, "tdg": np.conj(_T_PHASE)}

MAX_QASM_QUBITS = 2**16
"""Largest register ``parse_qasm`` accepts, judged where it is declared."""

MAX_STATE_QUBITS = 20
"""Largest data plus ancilla qubit count ``simulate_state`` accepts: its
dense statevector takes 16 * 2^n bytes (16 MiB at the cap)."""

GATES: dict[str, tuple[str, int]] = {
    "x": ("x", 1), "cx": ("x", 2), "ccx": ("x", 3), "h": ("h", 1), "t": ("t", 1), "tdg": ("tdg", 1),
}
"""The gate set: each IR kind, as named in ``qelib1.inc``, maps to its
action on the target qubit and its qubit count.  Every qubit but the last
is a control that fires on 1."""

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
        if n == 0 or n != 1 << k:
            raise ValueError(f"basis size {n} is not a power of two")
        object.__setattr__(self, "width", k)

    width: int = field(init=False, repr=False, compare=False)

    def bits_of(self, label: str) -> str:
        return _label(self.basis.index(label), self.width)


@dataclass(frozen=True)
class ListEncoding:
    """Bijection between the (list, payload) states of a fold over lists of
    at most ``maxlen`` items and qubit strings, for the slot schedule.  Slot
    k (k = 1 is the head) is one occupancy qubit, 1 while the list has k
    items or more, then the index bits of its item, 0 in an unoccupied
    slot; slots 1 to maxlen in order, then the index bits of the payload.
    Item and payload bases must each have a power-of-two size."""

    maxlen: int
    item: FinBasis
    payload: FinBasis

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_width", Encoding(self.item).width)
        object.__setattr__(self, "payload_width", Encoding(self.payload).width)

    item_width: int = field(init=False, repr=False, compare=False)
    payload_width: int = field(init=False, repr=False, compare=False)

    @property
    def width(self) -> int:
        return self.maxlen * (1 + self.item_width) + self.payload_width

    def slot(self, k: int) -> tuple[int, ...]:
        """Slot k's item qubits, then the payload qubits."""
        first = (k - 1) * (1 + self.item_width) + 1
        return (*range(first, first + self.item_width), *range(self.width - self.payload_width, self.width))

    def bits_of(self, label: str) -> str:
        lst, b = relalg.split_pair(label)
        items = relalg.split_list(lst)
        if len(items) > self.maxlen:
            raise ValueError(f"list {lst} has more than {self.maxlen} items")
        w = self.item_width
        occupied = "".join([_label(1 << w | self.item.index(x), 1 + w) for x in items])  # a 1, then the item bits
        return occupied + "0" * (1 + w) * (self.maxlen - len(items)) + _label(self.payload.index(b), self.payload_width)


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


class Circuit:
    """Ordered gate list over data qubits followed by ancilla qubits.

    A circuit holds one table of its distinct gates, ``_table``, and its
    positions as small-int indices into that table, ``_index``; every entry
    is used by some position.  The public constructor builds both from a
    gate tuple, one entry per distinct gate (its first instance), checks the
    qubit range of each entry once, and keeps the tuple as ``gates``.  The
    builders that know each position's index hand over table and index
    through ``_trusted``: ``_cancel``, for ``synth_permutation`` and
    ``peephole``, and ``parse_qasm``.  Their ``gates`` is built on demand,
    one instance per entry.  Every per-gate result is computed once per
    entry, from its qubits, on first use, and read through the index.
    Equality, hash and ``repr`` are those of the field tuple
    (``data_qubits``, ``ancilla_qubits``, ``gates``), and a circuit is
    frozen.
    """

    data_qubits: int
    ancilla_qubits: int
    _table: tuple[Gate, ...]
    _index: list[int]

    def __init__(self, data_qubits: int, ancilla_qubits: int, gates: tuple[Gate, ...]) -> None:
        at: dict[Gate, int] = {}
        index = [at.setdefault(g, len(at)) for g in gates]
        total = data_qubits + ancilla_qubits
        for g in at:
            if any(q < 0 or q >= total for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {total} qubits")
        self.__dict__.update(
            data_qubits=data_qubits, ancilla_qubits=ancilla_qubits, _table=tuple(at), _index=index, gates=gates
        )

    @classmethod
    def _trusted(cls, data_qubits: int, ancilla_qubits: int, table: tuple[Gate, ...], index: list[int]) -> Circuit:
        """A circuit whose table entries all lie in range and are each used
        by some position of ``index``, which the circuit then owns.  Not
        checked."""
        c = object.__new__(cls)
        c.__dict__.update(data_qubits=data_qubits, ancilla_qubits=ancilla_qubits, _table=table, _index=index)
        return c

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple[int, int, tuple[Gate, ...]]:
        return self.data_qubits, self.ancilla_qubits, self.gates

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Circuit(data_qubits={self.data_qubits!r}, ancilla_qubits={self.ancilla_qubits!r}, gates={self.gates!r})"

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(map(self._table.__getitem__, self._index))

    @cached_property
    def _counts(self) -> list[int]:
        """How many positions hold each table entry."""
        index = np.fromiter(self._index, dtype=np.intp, count=len(self._index))
        return np.bincount(index, minlength=len(self._table)).tolist()

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.ancilla_qubits

    def is_classical(self) -> bool:
        return self._classical

    @cached_property
    def _classical(self) -> bool:
        return all(GATES[g.name][0] == "x" for g in self._table)

    @cached_property
    def _masks(self) -> list[tuple[int, int]]:
        """Per entry of a classical circuit, (control mask, target mask) over
        basis indices, qubit q at bit n-1-q, for the mask fold of
        ``simulate``: the target flips where every control bit is set."""
        n = self.total_qubits
        return [(sum(1 << (n - 1 - q) for q in g.qubits[:-1]), 1 << (n - 1 - g.qubits[-1])) for g in self._table]

    @cached_property
    def _view_ops(self) -> list[tuple[str, tuple, tuple]]:
        """Per entry, (action, first, second): two index tuples into the
        (2,)*n view of a statevector, built from the entry's qubits.  Both
        fix each control axis at 1 and take every other axis whole; for
        action x they take the target axis forwards and reversed, for any
        other action they fix it at 0 and 1."""
        blank: list[int | slice] = [slice(None)] * self.total_qubits
        out = []
        for g in self._table:
            action = GATES[g.name][0]
            *controls, target = g.qubits
            idx = blank.copy()
            for q in controls:
                idx[q] = 1
            ends = (slice(None), slice(None, None, -1)) if action == "x" else (0, 1)
            idx[target] = ends[0]
            first = tuple(idx)
            idx[target] = ends[1]
            out.append((action, first, tuple(idx)))
        return out

    @cached_property
    def _lane_ops(self) -> list[tuple[int, int, int]]:
        """Per entry of a classical circuit, (first, second, target) qubits
        for ``_lanes``: target ^= first & second, a missing control being
        qubit n, whose lane is all ones."""
        n = self.total_qubits
        return [((n, n) + g.qubits)[-3:] for g in self._table]


_COSTS: dict[str, tuple[int, int]] = {"cx": (1, 0), "ccx": (6, 7), "t": (0, 1), "tdg": (0, 1)}
"""(cx cost, T-count) per gate kind; other kinds cost nothing in either.  A
``ccx`` costs the 6 cx of Barenco et al. (1995) and the 7 T of Amy, Maslov,
Mosca and Roetteler (2013)."""


@dataclass(frozen=True)
class Metrics:
    """Gate count, cx count and depth, which equality compares and
    ``to_json`` prints; and, beside them, the count of every kind of
    ``GATES``, the ancillas, and the cx cost and T-count of those kinds."""

    size: int
    cx: int
    depth: int
    kinds: dict[str, int] = field(default_factory=dict, compare=False)
    ancillas: int = field(default=0, compare=False)

    @property
    def cx_cost(self) -> int:
        return sum(_COSTS.get(k, (0, 0))[0] * n for k, n in self.kinds.items())

    @property
    def t_count(self) -> int:
        return sum(_COSTS.get(k, (0, 0))[1] * n for k, n in self.kinds.items())

    def to_json(self) -> str:
        return json.dumps({"size": self.size, "cx": self.cx, "depth": self.depth})


# ---------------------------------------------------------------------------
# Multi-controlled X lowering

Word = tuple[str, tuple[int, ...]]
"""A gate as (kind, qubits), before it is built as a ``Gate``."""


def decompose_mcx(
    controls: tuple[tuple[int, int], ...], target: int, ancillas: tuple[int, ...]
) -> tuple[Gate, ...]:
    """Lower an MCX with per-control polarity to {X, CX, CCX}.

    Negative controls are conjugated by X; three or more controls use a
    CCX compute/uncompute ladder needing ``len(controls) - 2`` ancillas,
    each restored to its prior value.  Its words come from the parts that
    synthesis shares, ``_mcx_core`` and ``_with_flips``; equal gates are one
    instance.
    """
    flips: list[Word] = [("x", (q,)) for q, pol in controls if pol == 0]
    words = _with_flips(flips, _mcx_core(tuple(q for q, _ in controls), target, ancillas))
    made = {w: Gate(*w) for w in dict.fromkeys(words)}
    return tuple(map(made.__getitem__, words))


def _mcx_core(qs: tuple[int, ...], target: int, ancillas: tuple[int, ...]) -> list[Word]:
    """The MCX on positive controls ``qs``: one gate for up to two
    controls, else a CCX compute/uncompute ladder over the first
    ``len(qs) - 2`` ancillas.  It depends on the control qubits, not on
    their polarity."""
    need = max(0, len(qs) - 2)
    if len(ancillas) < need:
        raise AncillaError(f"need {need} ancillas, have {len(ancillas)}")
    if len(qs) == 0:
        return [("x", (target,))]
    if len(qs) == 1:
        return [("cx", (qs[0], target))]
    if len(qs) == 2:
        return [("ccx", (qs[0], qs[1], target))]
    compute = [("ccx", (qs[0], qs[1], ancillas[0]))]
    for i in range(len(qs) - 3):
        compute.append(("ccx", (ancillas[i], qs[i + 2], ancillas[i + 1])))
    hit = ("ccx", (ancillas[len(qs) - 3], qs[-1], target))
    return compute + [hit] + compute[::-1]


def _with_flips(flips: list, core: list) -> list:
    """An MCX lowered from its parts, as words or as table indices: the x
    flips of its 0-polarity controls, its positive-control core, the same
    flips again."""
    return flips + core + flips


# ---------------------------------------------------------------------------
# Permutation synthesis

def _permutation_of(m: CMatrix, tol: float = DEFAULT_TOL) -> list[int]:
    rows, cols = m.entries.shape
    if rows != cols:
        raise NonPermutationError("matrix is not square")
    a = np.abs(m.entries)
    # |z - 1| <= tol only where |z| >= 1 - tol, so only those entries are
    # measured again; the margin is far above the rounding of either abs.
    i, j = np.nonzero(a >= 1.0 - tol - 1e-9)
    hit = np.abs(m.entries[i, j] - 1.0) <= tol
    i, j = i[hit], j[hit]
    # Per column: one entry near 1, nothing above 1 + tol, and nothing
    # else above tol.  Every comparison with NaN is false, so an entry
    # counts as zero only where it is at most tol: a NaN is nonzero.
    bad = (
        (np.bincount(j, minlength=cols) != 1)
        | (a.max(axis=0, initial=0.0) > 1.0 + tol)
        | (np.count_nonzero(~(a <= tol), axis=0) != 1)
    )
    if bad.any():
        raise NonPermutationError(
            "matrix is not a 0/1 permutation; general unitary synthesis is out of scope"
        )
    at = np.empty(cols, dtype=np.intp)
    at[j] = i  # the row of the one entry near 1, per column
    perm = at.tolist()
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

    A Gray-chain swap is an MCX whose controls are all the other data
    qubits, so its lowering is the x flips of its 0-polarity controls, a
    core that depends only on its target, and the same flips again.  Each
    target's core is lowered once, by ``_mcx_core``, and each qubit's flip
    is one table entry; each distinct swap is assembled from those parts
    as table indices, and each distinct gate is built (and checked by
    ``Gate``) once, when it first enters the table.  An assembled swap has
    no two equal neighbours, so ``_cancel`` compares gates only where one
    swap meets the last, which reaches ``peephole``'s fixed point.  The
    gates act on the data qubits and the ancillas the lowering was given,
    so the circuit is built trusted.
    """
    width = Encoding(m.src).width
    if m.tgt != m.src:
        raise ValueError("matrix bases must match the encoding basis")
    perm = _permutation_of(m, tol)

    swaps = [s for u, v in _transpositions(perm) for s in _gray_chain(u, v, width)]
    need = max(0, width - 3) if swaps else 0
    ancillas = tuple(range(width, width + need))
    entry = _Entries()
    flip = [("x", (q,)) for q in range(width)]
    bits = [(q, 1 << (width - 1 - q)) for q in range(width)]
    cores: dict[int, list[int]] = {}
    lowered: dict[tuple[int, int], list[int]] = {}
    for swap in dict.fromkeys(swaps):
        state, target = swap
        core = cores.get(target)
        if core is None:
            qs = tuple(q for q in range(width) if q != target)
            core = cores[target] = [entry[w] for w in _mcx_core(qs, target, ancillas)]
        flips = [entry[flip[q]] for q, bit in bits if not state & bit and q != target]
        lowered[swap] = _with_flips(flips, core)
    return _cancel(width, need, tuple(entry.gates), map(lowered.__getitem__, swaps))


def synth_fold(step: CMatrix, enc: ListEncoding, tol: float = DEFAULT_TOL) -> Circuit:
    """The fold of a permutation step over lists of at most ``enc.maxlen``
    items, on the qubits of ``enc``: ``synth_permutation(step)`` placed on
    slot k's item qubits and the payload qubits, for k = maxlen down to 1,
    as the fold runs its slots.  An unoccupied slot holds item 0 and gets
    the same gates, so the step must fix every (item 0, payload) state;
    then no gate needs an occupancy control, and no gate touches an
    occupancy qubit.  The step's ancillas follow the data qubits, and every
    slot shares them."""
    if step.src != relalg.product_basis(enc.item, enc.payload):
        raise ValueError("step basis must be the (item, payload) pairs of the encoding")
    c = synth_permutation(step, tol)
    fixed = step.entries.diagonal()[:len(enc.payload)]
    if not (np.abs(fixed - 1) <= tol).all():
        raise ValueError("step moves an (item 0, payload) state, which an unoccupied slot holds;"
                         " its slots would need occupancy controls")
    ancillas = tuple(range(enc.width, enc.width + c.ancilla_qubits))
    gates = []
    for k in range(enc.maxlen, 0, -1):
        at = enc.slot(k) + ancillas
        gates += [Gate(g.name, tuple(at[q] for q in g.qubits)) for g in c.gates]
    return Circuit(enc.width, c.ancilla_qubits, tuple(gates))


class _Entries(dict):
    """Word -> table index, building each distinct gate (checked by
    ``Gate``) into ``gates`` on its first lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.gates: list[Gate] = []

    def __missing__(self, w: Word) -> int:
        self.gates.append(Gate(*w))
        i = self[w] = len(self.gates) - 1
        return i


def peephole(c: Circuit) -> Circuit:
    """Cancel adjacent identical self-inverse gates (action x or h), to the
    fixed point of repeated adjacent cancellation.

    Table entries that hold equal gates are first merged into the first of
    them, so equality is equality of ints; then ``_cancel`` runs on the
    positions one at a time, a run of one gate each.
    """
    table, index = c._table, c._index
    first: dict[Gate, int] = {}
    canon = [first.setdefault(g, i) for i, g in enumerate(table)]
    if len(first) < len(table):
        index = list(map(canon.__getitem__, index))
    return _cancel(c.data_qubits, c.ancilla_qubits, table, zip(index))


def _cancel(
    data_qubits: int, ancilla_qubits: int, table: tuple[Gate, ...], runs: Iterable[Sequence[int]]
) -> Circuit:
    """The circuit of the runs of table indices, concatenated, with each
    adjacent pair of equal self-inverse gates (action x or h) cancelled.

    Equal gates must share one entry, and no run may hold such a pair
    itself.  Cancelling adjacent pairs reaches one reduced word in whatever
    order it is done, so a run is compared only where it meets the stack of
    what is left before it: its head cancels the top while the two are
    equal, and the rest is pushed as it stands.  The result keeps the
    entries its positions still use.  They are gates of a checked table,
    so the result is built trusted.
    """
    cancels = [GATES[g.name][0] in ("x", "h") for g in table]
    out = [-1]  # a bottom that is no entry
    for run in runs:
        j, n = 0, len(run)
        while j < n and run[j] == out[-1] and cancels[run[j]]:
            out.pop()
            j += 1
        out += run[j:] if j else run
    del out[0]
    kept = sorted(set(out))
    if len(kept) < len(table):
        renumber = dict(zip(kept, range(len(kept))))
        out = list(map(renumber.__getitem__, out))
        table = tuple(map(table.__getitem__, kept))
    return Circuit._trusted(data_qubits, ancilla_qubits, table, out)


# ---------------------------------------------------------------------------
# Simulation
#
# The simulators work on integer basis indices: qubit q is bit n-1-q of
# the index over all n = data + ancilla qubits, so qubit 0 is the leftmost
# character of a bit-string label and the ancillas are the low bits.  The
# lane kernel keeps one int per qubit instead, across the states of a ket.

def _label(i: int, width: int) -> str:
    # The guard bit keeps leading zeros and gives "" for width 0.
    return format(i | (1 << width), "b")[1:]


def _labels(indices: np.ndarray, width: int) -> list[str]:
    """``_label`` of each index.  From ``vecmonad._BULK_MIN`` indices up,
    where ``AmpVec``'s array form takes its NumPy path too, they are read
    off one grid of ``0``/``1`` bytes, one row of ``width`` bytes per
    index; fewer are printed one at a time, as that array form then loops.
    """
    if len(indices) < _BULK_MIN or not width:
        return [_label(i, width) for i in indices.tolist()]
    bits = (indices[:, None] >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8) + ord("0")
    return bits.view(f"S{width}").ravel().astype(str).tolist()


# Measured in-process on a 2-vCPU AMD EPYC: one label costs 0.4 us one at a
# time and 3.2 us on the grid, 1,024 cost 111 and 63 us.  ``check
# circuitgen`` runs many small kets: with the grid on every ket it took
# 9.9 ms, and 9.25 ms with this threshold.


def simulate(c: Circuit, input_bits: str) -> str:
    """Run a circuit on one computational-basis input.

    A classical circuit (x/cx/ccx only) folds its gate masks over one
    integer basis index; any other circuit goes through ``simulate_state``,
    the one place amplitudes at or below ``DEFAULT_TOL`` are cut, and its
    ket must be one basis state of magnitude 1, to within ``DEFAULT_TOL``.
    Ancillas start at zero and must return to zero.
    """
    d, anc = c.data_qubits, c.ancilla_qubits
    s = _read_label(input_bits, d) << anc
    if not c.is_classical():
        states = list(simulate_state(c, AmpVec({input_bits: 1.0})).items())
        if len(states) != 1 or abs(abs(states[0][1]) - 1.0) > DEFAULT_TOL:
            raise ValueError("output is not a computational basis state")
        return states[0][0]
    masks = c._masks
    for i in c._index:
        cmask, tmask = masks[i]
        if s & cmask == cmask:
            s ^= tmask
    mask = (1 << anc) - 1
    if s & mask:
        raise _dirty(_label(s >> anc, d), _label(s & mask, anc))
    return _label(s >> anc, d)


def simulate_state(c: Circuit, v: AmpVec) -> AmpVec:
    """Statevector action on a ket over data-qubit bit-strings.

    A classical circuit (x/cx/ccx only) permutes basis states, so it runs
    once on the support of the ket, bit-sliced by ``_lanes``, at any width.
    Any other circuit is capped at ``MAX_STATE_QUBITS`` data and ancilla
    qubits, and acts on a dense complex128 vector over all 2^n basis
    indices (qubit q at bit n-1-q): controlled X gates swap the amplitudes their
    controls select, and H and T/Tdg act on one axis of a (2,)*n view,
    through the index tuples of ``Circuit._view_ops``.  Both give the same
    ket: amplitudes at or below ``DEFAULT_TOL`` are dropped, the rest
    listed in basis index order, and any other amplitude on a set ancilla
    raises ``AncillaError``, which names the first such basis state in that
    order.  The dense path prints the labels of the kept indices through
    ``_labels``, in one NumPy pass where there are many, and hands them,
    with the kept amplitudes as one array, to ``AmpVec``'s array form.
    """
    if c.is_classical():
        return _lanes(c, v)
    n, anc, d = c.total_qubits, c.ancilla_qubits, c.data_qubits
    if n > MAX_STATE_QUBITS:
        raise SizeLimitError(
            f"circuit has {n} qubits; the statevector is capped at {MAX_STATE_QUBITS}"
        )
    psi = np.zeros(1 << n, dtype=np.complex128)
    for label, a in v.items():
        psi[_read_label(label, d) << anc] = a
    view = psi.reshape((2,) * n)
    views = c._view_ops
    for i in c._index:
        action, first, second = views[i]
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
    return AmpVec(_labels(nonzero >> anc, d), psi[nonzero])


def _read_label(label: str, d: int) -> int:
    """The basis index of a label of d characters 0 and 1; any other is refused."""
    if len(label) != d or label.strip("01"):
        raise ValueError(f"state label {label!r} must be {d} bits")
    return int(label or "0", 2)


def _dirty(data: str, ancillas: str) -> AncillaError:
    return AncillaError(f"ancillas left dirty: amplitude on data {data}, ancillas {ancillas}")


# Python's abs() and NumPy's complex magnitude may differ in the last bits,
# so a magnitude this close to the tolerance is measured as the dense path
# measures it.
_TOL_LO, _TOL_HI = DEFAULT_TOL * (1 - 2**-40), DEFAULT_TOL * (1 + 2**-40)


def _lanes(c: Circuit, v: AmpVec) -> AmpVec:
    """A classical circuit on the k states of a ket at once, bit-sliced:
    qubit q is one k-bit int, whose bit k-1-j is that qubit of state j, and
    each gate is one big-int xor over all k states.  The labels are read
    once, joined: each is d bits exactly when the join is k*d characters of
    0 and 1 and none is longer than d, and qubit q's lane is then every d-th
    character from q.  The lanes are printed back with ``format``; the
    states stay paired with their amplitudes, so each is carried over bit
    for bit."""
    if not len(v):
        return AmpVec()
    labels, amps = zip(*v.items())
    k, d, n = len(labels), c.data_qubits, c.total_qubits
    bits = "".join(labels)
    if len(bits) != k * d or bits.strip("01") or max(map(len, labels)) != d:
        for x in labels:
            _read_label(x, d)  # raises at the first bad label
    full = (1 << k) - 1
    lanes = [int(bits[q::d], 2) for q in range(d)] + [0] * c.ancilla_qubits + [full]
    lane_ops = c._lane_ops
    for i in c._index:
        a, b, t = lane_ops[i]
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
    """Size, cx count and depth, with the counts per kind, ancillas and
    costs of ``Metrics``.  The counts come from each table entry's position
    count.  The depth sweep over the positions reads each entry's qubits:
    a one-qubit gate's qubit, or a triple (first control, last two qubits)
    for a gate of two or three, whose level is one above the highest front
    of its qubits."""
    kinds = dict.fromkeys(GATES, 0)
    for g, n in zip(c._table, c._counts):
        kinds[g.name] += n
    alone = [g.qubits[0] if len(g.qubits) == 1 else -1 for g in c._table]
    triple = [(g.qubits[0], *g.qubits[-2:]) for g in c._table]
    front = [0] * max(1, c.total_qubits)
    for i in c._index:
        q = alone[i]
        if q >= 0:
            front[q] += 1
            continue
        a, b, t = triple[i]
        level = front[a]
        if front[b] > level:
            level = front[b]
        if front[t] > level:
            level = front[t]
        front[a] = front[b] = front[t] = level + 1
    return Metrics(
        size=len(c._index), cx=kinds["cx"], depth=max(front), kinds=kinds, ancillas=c.ancilla_qubits
    )


def _qref(c: Circuit, q: int) -> str:
    if q < c.data_qubits:
        return f"q[{q}]"
    return f"anc[{q - c.data_qubits}]"


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text over ``qelib1.inc`` gates; each table entry's line
    is formatted once and joined through the index."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.data_qubits}];"]
    if c.ancilla_qubits:
        lines.append(f"qreg anc[{c.ancilla_qubits}];")
    line = [f"{g.name} {','.join(_qref(c, q) for q in g.qubits)};" for g in c._table]
    lines += map(line.__getitem__, c._index)
    return "\n".join(lines) + "\n"


_QASM_QREG = re.compile(r"qreg\s+(q|anc)\[(\d+)\];")
_QASM_GATE = re.compile(rf"({'|'.join(GATES)})\s+(.+);")
_QASM_REF = re.compile(r"(q|anc)\[(\d+)\]")


def parse_qasm(text: str) -> Circuit:
    """Parse the emitted OpenQASM 2.0 subset back into a circuit.

    Each register may be declared once, before any gate that uses it, and
    every reference must lie inside its register.  So a line means the
    same wherever it occurs, and it fails, if at all, where it first
    occurs; the one exception is a declaration repeated word for word,
    which fails where it recurs.  A register holds at most
    ``MAX_QASM_QUBITS`` qubits; each size and index is judged by its digits
    (``_decimal``) before ``int`` reads it.  So ``_QasmLines`` reads a raw
    line at its first occurrence only, to its table index, and every line
    goes through it in one ``map``.  A line without a gate maps to -1 and
    is not kept, so a repeated declaration is read again and fails; such
    lines usually all lead the text, and are then cut in one slice.  Only a
    line that starts with ``qreg`` is tried as a declaration.  Lines equal
    once stripped share one table entry, whose (frozen) ``Gate`` is read by
    ``_QasmLines._gate`` and checked against its registers once, so the
    circuit is built trusted.
    """
    lines = _QasmLines()
    index = list(map(lines.__getitem__, text.splitlines()))
    if index[: lines.marks].count(-1) == lines.marks:  # the lines without a gate lead
        del index[: lines.marks]
    else:
        index = [i for i in index if i >= 0]
    sizes = lines.sizes
    if "q" not in sizes:
        raise ValueError("missing qreg declaration")
    return Circuit._trusted(sizes["q"], sizes.get("anc", 0), tuple(lines.table), index)


class _QasmLines(dict):
    """Raw line -> table index, read on its first lookup.  A line without
    a gate maps to -1 and is not kept, so ``marks`` counts every such line;
    a declaration fills ``sizes``.  A gate line is read by ``_gate``, the
    one reader of gate lines, which names the first fault of the line."""

    __slots__ = ("marks", "sizes", "entry", "table", "qubit")

    def __init__(self) -> None:
        super().__init__()
        self.marks = 0
        self.sizes: dict[str, int] = {}
        self.entry: dict[str, int] = {}  # stripped gate line -> table index
        self.table: list[Gate] = []
        self.qubit = _QasmRefs(self.sizes)

    def __missing__(self, raw: str) -> int:
        line = raw.strip()
        entry = self.entry
        i = entry.get(line)
        if i is None:
            if not line or line.startswith(("//", "OPENQASM", "include")):
                self.marks += 1
                return -1
            m = _QASM_QREG.fullmatch(line) if line.startswith("qreg") else None
            if m is not None:
                reg, size = m[1], _decimal(m[2])
                if reg in self.sizes:
                    raise ValueError(f"register {reg} declared twice: {raw!r}")
                if len(size) > len(str(MAX_QASM_QUBITS)) or int(size) > MAX_QASM_QUBITS:
                    raise SizeLimitError(f"register {reg} has {size} qubits; capped at {MAX_QASM_QUBITS}")
                self.sizes[reg] = int(size)
                self.marks += 1
                return -1
            table = self.table
            table.append(self._gate(line, raw))
            i = entry[line] = len(table) - 1
        self[raw] = i
        return i

    def _gate(self, line: str, raw: str) -> Gate:
        """The checked gate of a stripped line: its name, then each of its
        references in turn through ``qubit``, then ``Gate``'s arity and
        distinct-qubit checks."""
        m = _QASM_GATE.fullmatch(line)
        if m is None:
            raise ValueError(f"unsupported QASM line: {raw!r}")
        if "q" not in self.sizes:
            raise ValueError("gate before qreg declaration")
        return Gate(m[1], tuple(map(self.qubit.__getitem__, m[2].split(","))))


class _QasmRefs(dict):
    """Qubit reference, as it stands between the commas of a gate line ->
    its qubit, read on first lookup; the one place a reference is read and
    its faults named.  Only a reference in range is kept, and it stays in
    range, since a register is declared once; any other is read again
    where it recurs, and fails again.  The caller has checked that ``q``
    is declared."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: dict[str, int]) -> None:
        super().__init__()
        self.sizes = sizes

    def __missing__(self, ref: str) -> int:
        m = _QASM_REF.fullmatch(ref.strip())
        if m is None:
            raise ValueError(f"bad qubit reference {ref!r}")
        reg, i = m[1], _decimal(m[2])
        sizes = self.sizes
        if reg not in sizes:
            raise ValueError(f"qubit reference {reg}[{i}] to an undeclared register")
        if len(i) > len(str(sizes[reg])) or int(i) >= sizes[reg]:  # more digits than the size: never converted
            raise ValueError(f"qubit reference {reg}[{i}] outside qreg {reg}[{sizes[reg]}]")
        q = self[ref] = int(i) if reg == "q" else sizes["q"] + int(i)
        return q


def _decimal(digits: str) -> str:
    """``\\d`` digits as ``str(int(digits))`` prints them, without ``int``, so
    a number too long for ``int`` is judged by its length and named."""
    if not digits.isascii():
        digits = "".join(str(unicodedata.decimal(c)) for c in digits)
    return digits.lstrip("0") or "0"
